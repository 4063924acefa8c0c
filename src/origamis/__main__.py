"""`python -m origamis`: the command-line interface of `origamis.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
