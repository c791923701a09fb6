"""One benchmark operation: text in, the program's answer out as plain data.

Every call goes through a module attribute (`engine.cross_check`, not a name
imported here), so the span recorders in `tracing` see these calls as well
as the program's own calls between its modules.
"""

from __future__ import annotations

import json

from threedom import engine, groups, manifold, witness

# The CLI's default --max-order: above it `decide` skips the rank oracle.
MAX_ORDER = 10_000

QUERIES = (
    ("product", "dominated_by_product"),
    ("ntbundle", "dominated_by_nontrivial_circle_bundle"),
    ("anybundle", "dominated_by_any_circle_bundle"),
    ("presentable", "presentable_by_products"),
)


def decide(text: str) -> dict:
    """The path of `threedom --json decide <query>` for all four queries,
    then `crosscheck`; every YES certificate is verified and serialized.

    A ValueError, which the CLI reports as a rejection, propagates.
    """
    m = manifold.normalize_manifold(manifold.parse_manifold(text))
    verdicts, decisions = {}, []
    for query, name in QUERIES:
        try:
            d = getattr(engine, name)(m)
        except engine.FinitePi1Error:
            verdicts[query] = "ERR"
            continue
        verdicts[query] = "YES" if d.verdict else "NO"
        decisions.append((query, d))
    report = engine.cross_check(m)
    routes = {
        kind: (v.topological, v.geometric, v.algebraic)
        for kind, v in (("product", report.product), ("bundle", report.bundle))
    }
    certificates, json_bytes, skipped = [], 0, 0
    for query, d in decisions:
        w = d.witness
        if not d.verdict or w is None:
            continue
        if isinstance(w, engine.InessentialWitness):
            cert, body = _inessential(m, query, w)
            skipped += cert["oracle_rank"] is None
        else:
            cert = {"type": "finite_cover", "query": query, "kind": w.kind,
                    "base_genus": w.base_genus, "euler": w.euler,
                    "degree": w.degree}
            body = {"type": "finite_cover", "cover": w.cover,
                    "construction_status": w.construction_status,
                    **{k: cert[k] for k in ("kind", "base_genus", "euler", "degree")}}
        payload = {"schema_version": witness.SCHEMA_VERSION, "query": query,
                   "input": manifold.describe(m), "verdict": d.verdict,
                   "clause": d.clause, "explanation": d.explanation,
                   "witness": body}
        json_bytes += len(json.dumps(payload, indent=2, sort_keys=True))
        certificates.append(cert)
    return {"verdicts": verdicts, "routes": routes, "certificates": certificates,
            "json_bytes": json_bytes, "oracle_skipped": skipped}


def _inessential(m, query: str, w) -> tuple[dict, dict]:
    report = witness.verify_schema(w.schema)
    oracle_rank = None
    if w.cover_degree <= MAX_ORDER:
        try:
            oracle_rank = groups.reidemeister_schreier_rank_oracle(
                engine.free_product_data(m), max_order=MAX_ORDER)
        except groups.OrderBoundExceeded:
            pass
    s = w.schema
    cert = {"type": "inessential", "query": query, "free_rank": w.free_rank,
            "cover_degree": w.cover_degree, "pi1_rank": s.pi1_rank,
            "degree": s.degree, "source_kind": s.source_kind,
            "verified": report.passed, "oracle_rank": oracle_rank}
    body = {"type": "inessential", "free_rank": w.free_rank,
            "cover_degree": w.cover_degree,
            "schema": witness.schema_to_dict(s)}
    return cert, body


def verify(text: str) -> dict:
    """The path of `threedom verify <schema-file>` on the file's text."""
    schema = witness.schema_from_dict(json.loads(text))
    report = witness.verify_schema(schema)
    return {"passed": report.passed, "checks": len(report.checks)}
