import sys

from .cli import _console

sys.exit(_console())
