"""``build_sieve``, an old name of ``dp.build`` (see the aliases in ``cli``)."""

from .dp import build as build_sieve
