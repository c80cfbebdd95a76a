"""``python -m toric_apolarity``: the command-line front end."""
from .cli import main

raise SystemExit(main())
