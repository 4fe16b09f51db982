"""``python -m moefix``: the moefix command line. It imports moefix.cli
alone, which loads no numpy, so NEKO_THREADS and --deterministic still cap
numpy's threads before numpy loads."""
import sys

from moefix.cli import main

if __name__ == "__main__":
    sys.exit(main())
