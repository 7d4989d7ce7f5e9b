"""Analyzer fixtures: deliberately good/bad code, analyzed as files, never run."""
