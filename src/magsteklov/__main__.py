"""``python -m magsteklov``: the command-line front end."""

from .cli import entry

entry()
