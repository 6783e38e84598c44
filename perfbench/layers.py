"""Calls into each madics layer, made from outside the package.

Every method wraps one public function in a span named after its layer
and records that layer's counters.  The benchmark calls them in
dependency order (residues, ffield, field_codes, ringalg, then the
layers above), so each layer's lru_cache is warm before the layer above
it is timed and a span holds only its own layer's work.  The same
methods replace the names the CLI module imported, so a CLI job is
measured through the CLI's own call path.
"""

from __future__ import annotations

import tracemalloc

from madics import analysis, ffield, field_codes, identities, residues
from madics import ring_codes, ringalg, verify


class Layers:
    def __init__(self, tracer):
        self.tracer = tracer

    def system(self, p, m, b=None, a=None):
        with self.tracer.span("residues.build"):
            return residues.build_residue_system(p, m, b, a)

    def splitting_field(self, q, p):
        before = ffield.make_extension.cache_info().misses
        with self.tracer.span("ffield.extension"):
            out = field_codes.splitting_field(q, p)
        self.tracer.count("ffield.extensions_built",
                          ffield.make_extension.cache_info().misses - before)
        return out

    def family(self, system, q, family, *alpha_exp):
        # lru_cache keys on the argument form, so alpha_exp is passed
        # exactly as the caller being warmed up passes it
        ctx = ffield.make_prime_field(q)
        before = field_codes.family_codes.cache_info().misses
        with self.tracer.span("field_codes.build"):
            codes = field_codes.family_codes(system, ctx, family, *alpha_exp)
        if field_codes.family_codes.cache_info().misses > before:
            self.tracer.count("field_codes.codes_built", len(codes))
        return codes

    def ring(self, q, s):
        with self.tracer.span("ringalg.make_ring"):
            return ringalg.make_ring(ffield.make_prime_field(q), s)

    def ring_code(self, ring, system, family, slots, alpha_exp=1):
        with self.tracer.span("ring_codes.build"):
            return ring_codes.ring_code(ring, system, family, slots, alpha_exp)

    def chain(self, code, a=None):
        with self.tracer.span("ring_codes.chain"):
            return ring_codes.ring_mu_chain(code, a)

    def consistency(self, code):
        with self.tracer.span("ring_codes.consistency"):
            return ring_codes.component_consistency(code)

    def field_distance(self, code, cap=analysis.DEFAULT_CAP, use_numba=None):
        with self.tracer.span("analysis.field_scan"):
            rep = analysis.min_distance_field(code, cap, use_numba)
        self.tracer.count("analysis.words", rep.enumerated)
        # computed, not measured: one multiply-add per generator entry
        self.tracer.count("analysis.kernel_macs",
                          rep.enumerated * rep.k * rep.n)
        return rep

    def ring_distance(self, code, cap=analysis.DEFAULT_CAP, use_numba=None):
        with self.tracer.span("analysis.field_scan"):
            rep = analysis.min_distance_ring(code, cap, use_numba)
        q = code.ring.q
        self.tracer.count("analysis.words", rep.enumerated)
        self.tracer.count("analysis.kernel_macs", sum(
            q**k * k * rep.n for k in rep.component_ranks))
        return rep

    def ring_exhaustive(self, code, cap=analysis.DEFAULT_CAP):
        watch = self.tracer.enabled
        with self.tracer.span("analysis.ring_exhaustive"):
            if watch:
                tracemalloc.start()
            try:
                rep = analysis.min_distance_ring_exhaustive(code, cap)
                peak = tracemalloc.get_traced_memory()[1] if watch else 0
            finally:
                if watch:
                    tracemalloc.stop()
        self.tracer.count("analysis.ring_tuples", rep.enumerated)
        self.tracer.count("analysis.ring_exhaustive_peak_mb", peak / 2**20)
        return rep

    def identities(self, ring, system, base_slots=None, a=None, alpha_exp=1):
        with self.tracer.span("identities.suite"):
            out = identities.check_identities(ring, system, base_slots, a,
                                              alpha_exp)
        self.tracer.count("identities.evaluated", len(out))
        self.tracer.count("identities.refuted",
                          sum(not o.holds for o in out.values()))
        return out

    def verify(self, cap=1 << 24):
        with self.tracer.span("verify.run"):
            rep = verify.run_verification(cap)
        self.tracer.count("verify.checks_passed",
                          sum(c.passed for c in rep.checks))
        return rep

    def patch_cli(self, cli):
        """Route the CLI's calls into the uncached layers through the
        traced methods above."""
        cli.ring_code = self.ring_code
        cli.ring_mu_chain = self.chain
        cli.min_distance_field = self.field_distance
        cli.min_distance_ring = self.ring_distance
        cli.min_distance_ring_exhaustive = self.ring_exhaustive
        cli.run_verification = self.verify
