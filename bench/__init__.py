"""The repo's benchmark of record (see ``bench/README.md``)."""
