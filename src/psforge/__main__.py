"""`python -m psforge`: the psforge command line."""

from .cli import main

raise SystemExit(main())
