"""Goodput-under-SLA and host-cost benchmark of the serving simulator (see README.md)."""
