"""The shared fetch path the §5 executors read storage through.

Concealer's cost model (§5, Theorem 4.1) makes the *bin fetch* the unit
of both work and leakage: every query touching a bin pays the full
fixed-size retrieval.  :class:`~repro.batching.fetcher.BinFetcher` is
that retrieval for every executor — a sealed bin read whole or as slot
runs, or rows pulled by trapdoor — one request at a time.  Nothing is
reused across requests.
"""

from repro.batching.fetcher import BinFetcher

__all__ = ["BinFetcher"]
