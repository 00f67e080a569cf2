"""Performance benchmark for wearbench; see README.md in this directory."""
