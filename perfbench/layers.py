"""Per-layer metrics of one traced run.

`LayerProbe` wires a Tracer over the package's layers (arith, coeffs,
charsums, circle, reports), counts what the spans alone cannot (cache
misses, alpha terms, bytes computed, report bytes) at the same call
boundaries, and turns both into the per-layer metrics listed in
BENCHMARK.json.  README.md says which end-to-end metric each one should
move, and on which workload.
"""

from __future__ import annotations

import time

import numpy as np

from shiftconv import arith, charsums, circle, coeffs, reports

from tracer import Tracer


def growth_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


class LayerProbe:
    def __init__(self):
        self.alpha_terms = 0
        self.s_alpha_keys: set[tuple[int, int, int]] = set()
        self.members = 0
        self.l2_coeffs = 0
        self.tail_pairs = 0
        self.jsonl_bytes = 0
        self.weight12_sizes: list[int] = []
        self._cached = {f: f.cache_info().misses for f in (arith.kloosterman_table, arith.unit_inverses)}
        self.tracer = Tracer(
            [arith, coeffs, charsums, circle, reports],
            classes=[reports.ExperimentReport],
            hooks={
                "charsums.char_sum_T": self._on_t,
                "charsums.s_alpha_table": self._on_s_alpha,
                "circle.build_moduli_set": self._on_moduli,
                "circle.l2_error": self._on_l2,
                "reports.ExperimentReport.to_jsonl": self._on_jsonl,
                "coeffs.weight12_integer_coefficients": self._on_weight12,
            },
        )

    # hooks: called after each traced call returns -----------------------

    def _on_t(self, args, kwargs, result):
        p = args[0] if args else kwargs["p"]
        self.alpha_terms += p.q1.p * p.q1t.p * p.q2.p
        return "charsums.char_sum_T." + ("diag" if p.q1.p == p.q1t.p else "offdiag")

    def _on_s_alpha(self, args, kwargs, result):
        n, h, q = args
        self.s_alpha_keys.add((n % q, h % q, q))

    def _on_moduli(self, args, kwargs, result):
        self.members += len(result.members)

    def _on_l2(self, args, kwargs, result):
        self.l2_coeffs += result.n_max
        self.tail_pairs += (4 * len(args[0].moduli.members)) ** 2

    def _on_jsonl(self, args, kwargs, result):
        self.jsonl_bytes += len(result.encode())

    def _on_weight12(self, args, kwargs, result):
        self.weight12_sizes.append(args[0] if args else kwargs["N"])

    # ---------------------------------------------------------------------

    def weight12_growth(self, seconds_at_n: float) -> float:
        """Time-vs-N slope over N/4, N/2 and N, where N is the size of the
        run's single weight12_integer_coefficients call; 0 if it made none."""
        if len(self.weight12_sizes) != 1:
            return 0.0
        N = self.weight12_sizes[0]
        sizes, secs = [N // 4, N // 2], []
        for n in sizes:
            t0 = time.perf_counter()
            coeffs.weight12_integer_coefficients(n)
            secs.append(time.perf_counter() - t0)
        return growth_exponent(sizes + [N], secs + [seconds_at_n])

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs the
        untraced runs.  Call after the tracer is uninstalled."""
        spans = self.tracer.summary()

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        def self_s(name):
            return spans.get(name, {}).get("self_s", 0.0)

        miss = {f: f.cache_info().misses - before for f, before in self._cached.items()}
        t_names = ("charsums.char_sum_T.offdiag", "charsums.char_sum_T.diag")
        s_alpha_bytes = sum(16 * (arith.euler_phi(q) ** 2 + q * arith.euler_phi(q)) for _, _, q in self.s_alpha_keys)
        w12 = "coeffs.weight12_integer_coefficients"
        return {
            "arith.kloosterman_table.calls": calls("arith.kloosterman_table"),
            "arith.kloosterman_table.misses": miss[arith.kloosterman_table],
            "arith.kloosterman_table.self_s": self_s("arith.kloosterman_table"),
            "arith.unit_inverses.misses": miss[arith.unit_inverses],
            "arith.unit_inverses.self_s": self_s("arith.unit_inverses"),
            f"{w12}.self_s": self_s(w12),
            f"{w12}.growth_exp": self.weight12_growth(self_s(w12)),
            "coeffs.build_gl2_table.self_s": self_s("coeffs.build_gl2_table"),
            "coeffs.build_gl3_sym2_table.self_s": self_s("coeffs.build_gl3_sym2_table"),
            "coeffs.rankin_selberg_average.self_s": self_s("coeffs.rankin_selberg_average"),
            "charsums.char_sum_S_factored.calls": calls("charsums.char_sum_S_factored"),
            "charsums.char_sum_S_factored.self_s": self_s("charsums.char_sum_S_factored"),
            "charsums.bound_census.self_s": self_s("charsums.bound_census"),
            "charsums.char_sum_T.calls": sum(calls(n) for n in t_names),
            "charsums.char_sum_T.offdiag.self_s": self_s(t_names[0]),
            "charsums.char_sum_T.diag.self_s": self_s(t_names[1]),
            "charsums.alpha_terms": self.alpha_terms,
            "charsums.s_alpha_table.calls": calls("charsums.s_alpha_table"),
            "charsums.s_alpha_table.misses": len(self.s_alpha_keys),
            "charsums.s_alpha_table.self_s": self_s("charsums.s_alpha_table"),
            "charsums.s_alpha_table.bytes_computed": s_alpha_bytes,
            "circle.build_moduli_set.self_s": self_s("circle.build_moduli_set"),
            "circle.members": self.members,
            "circle.l2_error.self_s": self_s("circle.l2_error"),
            "circle.l2_error.ns_per_coeff": (
                1e9 * self_s("circle.l2_error") / self.l2_coeffs if self.l2_coeffs else 0.0
            ),
            "circle.l2_error.tail_pairs": self.tail_pairs,
            "reports.ExperimentReport.add.calls": calls("reports.ExperimentReport.add"),
            "reports.ExperimentReport.to_jsonl.self_s": self_s("reports.ExperimentReport.to_jsonl"),
            "reports.ExperimentReport.to_jsonl.bytes": self.jsonl_bytes,
        }
