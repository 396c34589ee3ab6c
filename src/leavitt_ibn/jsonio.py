"""JSON encodings of verdicts, witnesses, classifications and search
results.  Key order is fixed by construction so serialized output is
byte-stable; docs/formats.md documents the shapes."""

from __future__ import annotations

from typing import Optional

from .classifiers import SufficiencyResult
from .graph_monoid import RefuteResult
from .ibn_criterion import IbnVerdict, Witness


def witness_json(w: Witness) -> dict:
    return {
        "m": w.m,
        "n": w.n,
        "d": w.d,
        "m_vec": dict(w.m_vec),
        "k": dict(w.k),
        "k_prime": dict(w.k_prime),
        "sigma": list(w.sigma.steps),
        "sigma_prime": list(w.sigma_prime.steps),
        "gamma": w.gamma.to_dict(),
    }


def verdict_json(v: IbnVerdict, full_witness: bool = True) -> dict:
    if v.witness is None:
        witness = None
    elif full_witness:
        witness = witness_json(v.witness)
    else:
        witness = {"m": v.witness.m, "n": v.witness.n, "d": v.witness.d}
    return {
        "has_ibn": v.has_ibn,
        "rank_M": v.rank_m,
        "rank_aug": v.rank_aug,
        "witness": witness,
    }


def classify_json(r: SufficiencyResult) -> dict:
    if r.rule is None:
        return {"rule": None, "evidence": None}
    evidence: dict = {}
    if r.isolated_vertex is not None:
        evidence["isolated_vertex"] = r.isolated_vertex
        evidence["elimination_stage"] = r.elimination_stage
    if r.source_cycle is not None:
        evidence["source_cycle"] = list(r.source_cycle)
    return {"rule": r.rule, "evidence": evidence}


def refute_json(res: Optional[RefuteResult]) -> dict:
    if res is None:
        return {"found": False}
    return {
        "found": True,
        "m": res.m,
        "n": res.n,
        "sigma": list(res.equality.trace_x.steps),
        "sigma_prime": list(res.equality.trace_y.steps),
        "common": res.equality.common.to_dict(),
    }
