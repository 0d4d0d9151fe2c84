"""Short, obviously correct reference implementations for equivalence
tests: the textbook expressions the production fast paths must match."""
