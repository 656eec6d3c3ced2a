"""Parity oracles: straightforward reference implementations of fast paths.

Each oracle reproduces, record by record, what an optimized path in
``src/`` computes column by column.  They live with the tests so the
shipped package carries one implementation of each computation.
"""
