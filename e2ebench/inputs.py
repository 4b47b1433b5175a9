"""Seeded HOSP inputs, generated once per seed and size and cached.

The program under test only sees the files written here; the seed
stays with the benchmark.  ``repair`` inputs (``dirty.csv`` and
``clean.csv`` plus the seed-mined Σ in ``rules.json``) feed ``batch``
and ``serve``.  ``discover`` inputs carry no Σ, because discovery mines
its own, and hold several tables, ``dirty-<i>.csv`` and
``clean-<i>.csv``: how long mining takes depends on the table's draw
of states and measures as much as on the host, so a run measures more
than one draw.  Table *i* of seed *s* is ``repro.datagen`` seed
``s * tables + i``, so no two seeds share a table.
"""

import json
import os
import shutil

#: per input kind: rows per table, tables, noise rate, typo share, Σ
#: size cap.  ``repair`` is the bench_core_engine protocol, ``discover``
#: the bench_discovery protocol at one tenth of its size.
SIZES = {
    "full": {
        "repair": {"rows": 50_000, "tables": 1, "noise_rate": 0.08,
                   "typo_ratio": 0.5, "rule_cap": 2_000},
        "discover": {"rows": 50_000, "tables": 2, "noise_rate": 0.10,
                     "typo_ratio": 0.5, "rule_cap": 0},
    },
    "tiny": {
        "repair": {"rows": 2_000, "tables": 1, "noise_rate": 0.08,
                   "typo_ratio": 0.5, "rule_cap": 150},
        "discover": {"rows": 3_000, "tables": 2, "noise_rate": 0.10,
                     "typo_ratio": 0.5, "rule_cap": 0},
    },
}


def ensure_inputs(cache_dir, kind, seed, size):
    """Directory holding *kind*'s inputs for *seed*; made on first use."""
    spec = SIZES[size][kind]
    target = os.path.join(cache_dir, "%s-%dx%d-seed%d"
                          % (kind, spec["tables"], spec["rows"], seed))
    if os.path.exists(os.path.join(target, "inputs.json")):
        return target
    staging = target + ".partial"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)

    from repro.core import RuleSet, save_ruleset
    from repro.datagen import hosp_fds
    from repro.relational import write_csv
    from repro.rulegen.seeds import generate_seed_rules

    meta = dict(spec, kind=kind, seed=seed)
    if kind == "discover":
        meta["table_seeds"] = [seed * spec["tables"] + i
                               for i in range(spec["tables"])]
        for i, table_seed in enumerate(meta["table_seeds"]):
            clean, dirty = _tables(spec, table_seed)
            write_csv(dirty, os.path.join(staging, "dirty-%d.csv" % i))
            write_csv(clean, os.path.join(staging, "clean-%d.csv" % i))
    else:
        clean, dirty = _tables(spec, seed)
        write_csv(dirty, os.path.join(staging, "dirty.csv"))
        write_csv(clean, os.path.join(staging, "clean.csv"))
    if spec["rule_cap"]:
        mined = generate_seed_rules(clean, dirty, hosp_fds())
        rules = RuleSet(clean.schema, mined.rules()[:spec["rule_cap"]])
        save_ruleset(rules, os.path.join(staging, "rules.json"))
        meta["rules"] = len(rules)
    with open(os.path.join(staging, "inputs.json"), "w") as handle:
        json.dump(meta, handle, sort_keys=True)
    shutil.rmtree(target, ignore_errors=True)
    os.replace(staging, target)
    return target


def _tables(spec, seed):
    """The clean HOSP table of *seed* and its noisy copy."""
    from repro.datagen import (constraint_attributes, generate_hosp,
                               hosp_fds, inject_noise)
    clean = generate_hosp(rows=spec["rows"], seed=seed)
    dirty = inject_noise(clean, constraint_attributes(hosp_fds()),
                         noise_rate=spec["noise_rate"],
                         typo_ratio=spec["typo_ratio"], seed=seed).table
    return clean, dirty


def describe(input_dir):
    with open(os.path.join(input_dir, "inputs.json")) as handle:
        return json.load(handle)
