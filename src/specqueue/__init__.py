"""Speculative merge-queue scheduling engine and simulator."""
