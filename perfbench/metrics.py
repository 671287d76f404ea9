"""Per-layer metrics from merged tracer summaries, and the top layer.

Counts and seconds are per traced round (one fresh worker running the
round's whole request list); ratios and maxima are over all traced
rounds.  A metric whose wrapped call site was missing is reported absent.
"""

from __future__ import annotations

import json
from pathlib import Path

PREDICTIONS = json.loads((Path(__file__).parent / "predictions.json").read_text())


def _ratio(num, den):
    return num / den if den else 0.0


def _span(name, field):
    return lambda s, r: s.get(f"span:{name}:{field}", 0.0) / r


def _cache(name, field):
    return lambda s, r: s.get(f"cache:{name}:{field}", 0.0) / r


def _count(key):
    return lambda s, r: s.get(key, 0.0) / r


def _max(key):
    return lambda s, r: s.get(f"max:{key}", 0.0)


def _hit_ratio(name):
    return lambda s, r: _ratio(
        s.get(f"cache:{name}:hits", 0.0),
        s.get(f"cache:{name}:hits", 0.0) + s.get(f"cache:{name}:misses", 0.0),
    )


def _per_self(key, name):
    return lambda s, r: _ratio(s.get(key, 0.0), s.get(f"span:{name}:self_s", 0.0))


# metric name -> (call sites it needs, function of (summary, rounds))
LAYER_METRICS = {
    "evaluator.expansion.builds": (["evaluator.expansion"], _cache("evaluator.expansion", "misses")),
    "evaluator.expansion.self_s": (["evaluator.expansion"], _span("evaluator.expansion", "self_s")),
    "evaluator.expansion.max_order": (["evaluator.expansion"], _max("expansion.max_order")),
    "evaluator.expansion.useful_ratio": (
        ["evaluator.expansion", "evaluator.recurrence"],
        lambda s, r: _ratio(
            s.get("expansion.seeded_built", 0.0), s.get("cache:evaluator.expansion:misses", 0.0)
        ),
    ),
    "evaluator.plan.calls": (["evaluator.plan"], _span("evaluator.plan", "calls")),
    "evaluator.plan.self_s": (["evaluator.plan"], _span("evaluator.plan", "self_s")),
    "evaluator.ladder.useful_ratio": (
        ["evaluator.evaluate", "evaluator.recurrence"],
        lambda s, r: _ratio(
            s.get("cache:evaluator.evaluate:misses", 0.0), s.get("span:evaluator.recurrence:calls", 0.0)
        ),
    ),
    "evaluator.recurrence.calls": (["evaluator.recurrence"], _span("evaluator.recurrence", "calls")),
    "evaluator.recurrence.steps": (["evaluator.recurrence"], _count("recurrence.steps")),
    "evaluator.recurrence.self_s": (["evaluator.recurrence"], _span("evaluator.recurrence", "self_s")),
    "evaluator.recurrence.steps_per_s": (
        ["evaluator.recurrence"],
        _per_self("recurrence.steps", "evaluator.recurrence"),
    ),
    "evaluator.recurrence.max_bits": (["evaluator.recurrence"], _max("recurrence.max_bits")),
    "evaluator.evaluate.calls": (["evaluator.evaluate"], _span("evaluator.evaluate", "calls")),
    "evaluator.evaluate.hit_ratio": (["evaluator.evaluate"], _hit_ratio("evaluator.evaluate")),
    "numerics.base_expansion.builds": (
        ["numerics.base_expansion"],
        _cache("numerics.base_expansion", "misses"),
    ),
    "numerics.base_expansion.self_s": (
        ["numerics.base_expansion"],
        _span("numerics.base_expansion", "self_s"),
    ),
    "numerics.evaluate_expansion.calls": (
        ["numerics.evaluate_expansion"],
        _span("numerics.evaluate_expansion", "calls"),
    ),
    "numerics.evaluate_expansion.self_s": (
        ["numerics.evaluate_expansion"],
        _span("numerics.evaluate_expansion", "self_s"),
    ),
    "numerics.constants.self_s": (["numerics.constants"], _span("numerics.constants", "self_s")),
    "enclosure.ops": (["enclosure"], _count("enclosure.ops")),
    "enclosure.self_s": (["enclosure"], _count("enclosure.self_s")),
    "evaluator.direct.terms": (["evaluator.direct"], _count("direct.terms")),
    "evaluator.direct.self_s": (["evaluator.direct"], _span("evaluator.direct", "self_s")),
    "evaluator.direct.terms_per_s": (
        ["evaluator.direct"],
        _per_self("direct.terms", "evaluator.direct"),
    ),
    "order.compare.calls": (["order.compare"], _span("order.compare", "calls")),
    "order.compare.self_s": (["order.compare"], _span("order.compare", "self_s")),
    "order.compare.rounds": (
        ["order.compare", "order.enclose"],
        lambda s, r: _ratio(s.get("compare.enclosures", 0.0), s.get("span:order.compare:calls", 0.0)),
    ),
    "order.unresolved": (["order.compare", "order.scalar_verdict"], _count("order.unresolved")),
    "order.evaluate.calls": (["order.evaluate"], _span("order.evaluate", "calls")),
    "order.enumerate.builds": (["order.enumerate"], _cache("order.enumerate", "misses")),
    "order.enumerate.self_s": (["order.enumerate"], _span("order.enumerate", "self_s")),
    "order.beta_table.self_s": (["order.beta_table"], _span("order.beta_table", "self_s")),
    "order.band_prefix.calls": (["order.band_prefix"], _span("order.band_prefix", "calls")),
    "order.band_prefix.self_s": (["order.band_prefix"], _span("order.band_prefix", "self_s")),
    "order.band_of_value.self_s": (["order.band_of_value"], _span("order.band_of_value", "self_s")),
    "order.rank_of_tail.self_s": (["order.rank_of_tail"], _span("order.rank_of_tail", "self_s")),
    "order.phi.self_s": (["order.phi"], _span("order.phi", "self_s")),
    "verify.self_s": (["verify"], _span("verify", "self_s")),
    "cli.process_start_s": (
        ["cli.main"],
        lambda s, r: _ratio(s.get("cli.process_start_s", 0.0), s.get("cli.processes", 0.0)),
    ),
    "cli.main.self_s": (["cli.main"], _span("cli.main", "self_s")),
    "cli.cache_lookup.calls": (["cli.cache_lookup"], _span("cli.cache_lookup", "calls")),
    "cli.cache_lookup.self_s": (["cli.cache_lookup"], _span("cli.cache_lookup", "self_s")),
    "cli.cache_lookup.bytes_read": (["cli.cache_lookup"], _count("cache.bytes_read")),
    "cli.cache.hit_ratio": (
        ["cli.main"],
        lambda s, r: _ratio(s.get("cli.eval_hits", 0.0), s.get("cli.eval_requests", 0.0)),
    ),
    "cli.cache_store.calls": (["cli.cache_store"], _span("cli.cache_store", "calls")),
    "cli.cache_store.self_s": (["cli.cache_store"], _span("cli.cache_store", "self_s")),
    "cli.cache.file_bytes": (["cli.main"], _count("cli.cache_file_bytes")),
}

def layer_metrics(summary: dict, rounds: int) -> tuple[dict, list]:
    """``({metric: value}, [absent metric names])``."""
    missing = set(summary.get("absent", ()))
    values, absent = {}, []
    for name, (sites, compute) in LAYER_METRICS.items():
        if missing.intersection(sites):
            absent.append(name)
            values[name] = 0.0
        else:
            values[name] = compute(summary, max(rounds, 1))
    return values, absent


def self_time_by_layer(summary: dict, busy: float) -> tuple[dict, dict]:
    """Self seconds per module layer and per call site.  ``process`` is the
    CLI's interpreter start and imports; ``unattributed`` is request time
    outside every wrapped call."""
    sites: dict = {}
    for key, value in summary.items():
        if key.startswith("span:") and key.endswith(":self_s"):
            sites[key[len("span:"):-len(":self_s")]] = value
    sites["enclosure"] = summary.get("enclosure.self_s", 0.0)
    sites["process"] = summary.get("cli.process_start_s", 0.0)
    covered = summary.get("span:top:total_s", 0.0) + sites["process"]
    sites["unattributed"] = max(busy - covered, 0.0)
    layers: dict = {}
    for site, value in sites.items():
        layer = site.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return layers, sites


def top_layer(workload: str, summary: dict, busy: float) -> dict:
    """The layer and call site with the most self time, against the
    prediction in ``predictions.json``."""
    layers, sites = self_time_by_layer(summary, busy)
    layer = max(layers, key=layers.get)
    site = max(sites, key=sites.get)
    predicted = PREDICTIONS["top_layer"][workload]
    return {
        "layer": layer,
        "layer_share": round(_ratio(layers[layer], sum(layers.values())), 4),
        "site": site,
        "site_share": round(_ratio(sites[site], sum(sites.values())), 4),
        "predicted": predicted,
        "matches_prediction": layer in predicted or site in predicted,
        "self_s_by_layer": {k: round(v, 4) for k, v in sorted(layers.items())},
    }
