"""Seeded benchmark for the mzphase sweep CLI; see NOTES.md and run.py."""
