"""Set-up probe: what a fresh `strumscribe` process does before any work.

`python3 probe.py <src dir> <vocabulary.json>` imports the CLI, builds its
argument parser and loads the vocabulary, then exits. run.py times whole
runs of this script, interpreter start-up included.
"""

import sys

sys.path.insert(0, sys.argv[1])

from strumscribe import cli  # noqa: E402
from strumscribe.vocabulary import load_vocabulary  # noqa: E402

cli.build_parser()
with open(sys.argv[2], encoding="utf-8") as fp:
    load_vocabulary(fp)
