"""The end-to-end benchmark spine (see README.md; entry point: run.py)."""
