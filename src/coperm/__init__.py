"""Exact permanental/characteristic polynomial census of small graphs."""

from .backend import BACKEND
