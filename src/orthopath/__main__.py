"""``python -m orthopath <command> ...``: the ``orthopath`` command."""

from .cli import main

raise SystemExit(main())
