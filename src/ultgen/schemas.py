"""JSON Schema documents for every machine-readable CLI output.

These are plain dicts (draft 2020-12) so importing them pulls in no
dependency; the test suite validates real outputs against them with the
jsonschema package.
"""

from __future__ import annotations

_SCALAR = {
    # int64/bool/float; non-finite floats travel as marker strings.
    # JSON integers are numbers too, so the numeric arm must admit both.
    "anyOf": [
        {"type": ["number", "boolean"]},
        {"enum": ["Infinity", "-Infinity", "NaN"]},
    ]
}

_PCT = {"type": "number", "minimum": 0, "maximum": 100}
_FRACTION = {"type": "number", "minimum": 0, "maximum": 1}
_COUNT = {"type": "integer", "minimum": 0}
_STRINGS = {"type": "array", "items": {"type": "string"}}

# Field sets that two records share, each declared once: a subcommand's
# output and the manifest's stage of the same name hold the counts and the
# percentages; the `cases` output and the manifest both hold seed and budget.
_SEED_BUDGET = {"seed": {"type": "integer"}, "budget": {"type": "integer", "minimum": 1}}
_SCAFFOLD_COUNTS = {
    "files": _STRINGS,
    "auto_line_count": _COUNT,
    "anchor_line_count": _COUNT,
    "generation_ratio": _FRACTION,
}
_CASE_COUNTS = {
    "configured": _COUNT,
    "candidates_run": _COUNT,
    "case_file": {"type": "string"},
}
_COVERAGE_PCTS = {"functional_pct": _PCT, "conditional_pct": _PCT}


def _recommendation_rows(fourth: str, schema: dict) -> dict:
    """A list of `advise.json` rows. A `components` row holds `highlight` as
    its fourth key and a `gaps` row the `gap`; all else is shared."""
    row = {
        "component": {"type": "string"},
        "current_conditional_pct": _PCT,
        "recommended_conditional_pct": {"type": "integer", "minimum": 70, "maximum": 95},
        fourth: schema,
        "risk_at_current": _FRACTION,
        "risk_at_recommended": _FRACTION,
        "fallback_used": {"type": "boolean"},
    }
    return {
        "type": "array",
        "items": {
            "type": "object",
            "required": [*row],
            "additionalProperties": False,
            "properties": row,
        },
    }


CONDITION_SCHEMA = {
    "type": "object",
    "required": ["id", "atom", "driver", "params", "calls", "literals"],
    "additionalProperties": False,
    "properties": {
        "id": {"type": "string"},
        "atom": {"type": "string"},
        "driver": {
            "enum": ["ParameterDriven", "CallDriven", "FieldDriven", "Mixed"]
        },
        "params": _STRINGS,
        "calls": _STRINGS,
        "literals": {
            # (type name, literal repr) pairs
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [{"type": "string"}, {"type": "string"}],
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
}

DECISIONS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen decisions output",
    "type": "object",
    "required": ["class", "methods"],
    "additionalProperties": False,
    "properties": {
        "class": {"type": "string"},
        "methods": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["method", "decisions"],
                "additionalProperties": False,
                "properties": {
                    "method": {"type": "string"},
                    "decisions": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["id", "kind", "expr", "conditions"],
                            "additionalProperties": False,
                            "properties": {
                                "id": {"type": "string"},
                                "kind": {"enum": ["if", "while", "assert"]},
                                "expr": {"type": "string"},
                                "conditions": {
                                    "type": "array",
                                    "items": CONDITION_SCHEMA,
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}

SCAFFOLD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen scaffold output",
    "type": "object",
    "required": ["class", *_SCAFFOLD_COUNTS, "warnings"],
    "additionalProperties": False,
    "properties": {
        "class": {"type": "string"},
        **_SCAFFOLD_COUNTS,
        "warnings": _STRINGS,
    },
}

CASE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen test case (one JSONL line)",
    "type": "object",
    "required": ["id", "target", "origin", "params", "fields", "mocks"],
    "additionalProperties": False,
    "properties": {
        "id": {"type": "string"},
        "target": {
            "type": "array",
            "prefixItems": [{"type": "string"}, {"type": "string"}],
            "minItems": 2,
            "maxItems": 2,
        },
        "origin": {"enum": ["Configured", "Fuzzed"]},
        "params": {"type": "object", "additionalProperties": _SCALAR},
        "fields": {"type": "object", "additionalProperties": _SCALAR},
        "mocks": {
            "type": "object",
            "additionalProperties": {
                "type": "array", "items": _SCALAR, "minItems": 1,
            },
        },
        "seed": {"type": "integer"},
        "candidate_index": _COUNT,
        "diagnostics": _STRINGS,
    },
    "dependentRequired": {"candidate_index": ["seed"]},
}

CASES_SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen cases output",
    "type": "object",
    "required": ["target", *_SEED_BUDGET, *_CASE_COUNTS, "kept", "conditional_pct"],
    "additionalProperties": False,
    "properties": {
        "target": {"type": "string"},
        **_SEED_BUDGET,
        **_CASE_COUNTS,
        "kept": _COUNT,
        "conditional_pct": _PCT,
    },
}

METHOD_COVERAGE_SCHEMA = {
    "type": "object",
    "required": [
        "method", "conditions", "decisions", "pairs_covered", "pairs_total",
        "conditional_pct", "has_passing_case",
    ],
    "additionalProperties": False,
    "properties": {
        "method": {"type": "string"},
        "conditions": _COUNT,
        "decisions": _COUNT,
        "pairs_covered": _COUNT,
        "pairs_total": _COUNT,
        "conditional_pct": _PCT,
        "has_passing_case": {"type": "boolean"},
        "uncovered": _STRINGS,
    },
}

COVERAGE_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen coverage output",
    "type": "object",
    "required": ["methods", *_COVERAGE_PCTS, "threshold"],
    "additionalProperties": False,
    "properties": {
        "methods": {"type": "array", "items": METHOD_COVERAGE_SCHEMA},
        **_COVERAGE_PCTS,
        "threshold": _PCT,
    },
}

ADVISE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen advise output",
    "type": "object",
    "required": ["components", "gaps", "gap_count", "model", "warnings"],
    "additionalProperties": False,
    "properties": {
        "components": _recommendation_rows("highlight", {"type": "boolean"}),
        "gaps": _recommendation_rows("gap", {"type": "number"}),
        "gap_count": _COUNT,
        "model": {
            "type": "object",
            "required": [
                "weights", "bias", "churn_max", "n_samples", "final_loss",
            ],
            "additionalProperties": False,
            "properties": {
                "weights": {
                    "type": "array", "items": {"type": "number"},
                    "minItems": 3, "maxItems": 3,
                },
                "bias": {"type": "number"},
                "churn_max": _COUNT,
                "n_samples": {"type": "integer", "minimum": 20},
                "final_loss": {"type": "number", "minimum": 0},
            },
        },
        "warnings": _STRINGS,
    },
}

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen run manifest",
    "type": "object",
    "required": ["tool_version", *_SEED_BUDGET, "inputs", "stages", "exit_code"],
    "additionalProperties": False,
    "properties": {
        "tool_version": {"type": "string"},
        **_SEED_BUDGET,
        "inputs": {
            # path -> sha256 of content; no timestamps anywhere
            "type": "object",
            "additionalProperties": {
                "type": "string", "pattern": "^[0-9a-f]{64}$",
            },
        },
        "stages": {
            "type": "object",
            "required": ["scaffold", "cases", "coverage"],
            "additionalProperties": False,
            "properties": {
                "advise": {
                    "type": "object",
                    "required": ["gap_count", "highlighted", "report"],
                    "additionalProperties": False,
                    "properties": {
                        "gap_count": _COUNT,
                        "highlighted": _STRINGS,
                        "report": {"type": "string"},
                    },
                },
                "scaffold": {
                    "type": "object",
                    "required": ["classes", *_SCAFFOLD_COUNTS],
                    "additionalProperties": False,
                    "properties": {"classes": _STRINGS, **_SCAFFOLD_COUNTS},
                },
                "cases": {
                    "type": "object",
                    "required": [*_CASE_COUNTS, "fuzzed_kept"],
                    "additionalProperties": False,
                    "properties": {**_CASE_COUNTS, "fuzzed_kept": _COUNT},
                },
                "coverage": {
                    "type": "object",
                    "required": [*_COVERAGE_PCTS, "report"],
                    "additionalProperties": False,
                    "properties": {**_COVERAGE_PCTS, "report": {"type": "string"}},
                },
            },
        },
        "exit_code": {"enum": [0, 2]},
    },
}
