"""Fixture proving inline suppression silences every rule (never imported)."""


def sentinel() -> int:
    phase = 0  # repro-analyze: disable=phase-id-range -- sentinel
    return phase


def shared(into=[]) -> list:  # repro-analyze: disable=mutable-default-args -- fixture
    return into


def many(into=[]) -> int:  # repro-analyze: disable=mutable-default-args, phase-id-range -- fixture
    phase = 9  # repro-analyze: disable=all -- fixture
    return phase + len(into)
