import sys

from hallkit import cli

if __name__ == "__main__":
    sys.exit(cli.main())
