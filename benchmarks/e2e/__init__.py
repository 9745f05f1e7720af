"""End-to-end benchmark of the serving path (see README.md in this directory)."""
