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
        "params": {"type": "array", "items": {"type": "string"}},
        "calls": {"type": "array", "items": {"type": "string"}},
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
    "required": [
        "class", "files", "auto_line_count", "anchor_line_count",
        "generation_ratio", "warnings",
    ],
    "additionalProperties": False,
    "properties": {
        "class": {"type": "string"},
        "files": {"type": "array", "items": {"type": "string"}},
        "auto_line_count": {"type": "integer", "minimum": 0},
        "anchor_line_count": {"type": "integer", "minimum": 0},
        "generation_ratio": {"type": "number", "minimum": 0, "maximum": 1},
        "warnings": {"type": "array", "items": {"type": "string"}},
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
        "candidate_index": {"type": "integer", "minimum": 0},
        "diagnostics": {"type": "array", "items": {"type": "string"}},
    },
}

CASES_SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen cases output",
    "type": "object",
    "required": [
        "target", "budget", "seed", "configured", "kept", "candidates_run",
        "conditional_pct", "case_file",
    ],
    "additionalProperties": False,
    "properties": {
        "target": {"type": "string"},
        "budget": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "configured": {"type": "integer", "minimum": 0},
        "kept": {"type": "integer", "minimum": 0},
        "candidates_run": {"type": "integer", "minimum": 0},
        "conditional_pct": _PCT,
        "case_file": {"type": "string"},
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
        "conditions": {"type": "integer", "minimum": 0},
        "decisions": {"type": "integer", "minimum": 0},
        "pairs_covered": {"type": "integer", "minimum": 0},
        "pairs_total": {"type": "integer", "minimum": 0},
        "conditional_pct": _PCT,
        "has_passing_case": {"type": "boolean"},
        "uncovered": {"type": "array", "items": {"type": "string"}},
    },
}

COVERAGE_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen coverage output",
    "type": "object",
    "required": ["methods", "functional_pct", "conditional_pct", "threshold"],
    "additionalProperties": False,
    "properties": {
        "methods": {"type": "array", "items": METHOD_COVERAGE_SCHEMA},
        "functional_pct": _PCT,
        "conditional_pct": _PCT,
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
        "components": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "component", "current_conditional_pct",
                    "recommended_conditional_pct", "highlight",
                    "risk_at_current", "risk_at_recommended", "fallback_used",
                ],
                "additionalProperties": False,
                "properties": {
                    "component": {"type": "string"},
                    "current_conditional_pct": _PCT,
                    "recommended_conditional_pct": {
                        "type": "integer", "minimum": 70, "maximum": 95,
                    },
                    "highlight": {"type": "boolean"},
                    "risk_at_current": {"type": "number", "minimum": 0, "maximum": 1},
                    "risk_at_recommended": {"type": "number", "minimum": 0, "maximum": 1},
                    "fallback_used": {"type": "boolean"},
                },
            },
        },
        "gaps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "component", "current_conditional_pct",
                    "recommended_conditional_pct", "gap",
                    "risk_at_current", "risk_at_recommended", "fallback_used",
                ],
                "additionalProperties": False,
                "properties": {
                    "component": {"type": "string"},
                    "current_conditional_pct": _PCT,
                    "recommended_conditional_pct": {"type": "integer"},
                    "gap": {"type": "number"},
                    "risk_at_current": {"type": "number"},
                    "risk_at_recommended": {"type": "number"},
                    "fallback_used": {"type": "boolean"},
                },
            },
        },
        "gap_count": {"type": "integer", "minimum": 0},
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
                "churn_max": {"type": "integer", "minimum": 0},
                "n_samples": {"type": "integer", "minimum": 20},
                "final_loss": {"type": "number", "minimum": 0},
            },
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ultgen run manifest",
    "type": "object",
    "required": [
        "tool_version", "seed", "budget", "inputs", "stages", "exit_code",
    ],
    "additionalProperties": False,
    "properties": {
        "tool_version": {"type": "string"},
        "seed": {"type": "integer"},
        "budget": {"type": "integer", "minimum": 1},
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
                        "gap_count": {"type": "integer", "minimum": 0},
                        "highlighted": {
                            "type": "array", "items": {"type": "string"},
                        },
                        "report": {"type": "string"},
                    },
                },
                "scaffold": {
                    "type": "object",
                    "required": [
                        "classes", "files", "auto_line_count",
                        "anchor_line_count", "generation_ratio",
                    ],
                    "additionalProperties": False,
                    "properties": {
                        "classes": {"type": "array", "items": {"type": "string"}},
                        "files": {"type": "array", "items": {"type": "string"}},
                        "auto_line_count": {"type": "integer", "minimum": 0},
                        "anchor_line_count": {"type": "integer", "minimum": 0},
                        "generation_ratio": {
                            "type": "number", "minimum": 0, "maximum": 1,
                        },
                    },
                },
                "cases": {
                    "type": "object",
                    "required": [
                        "configured", "fuzzed_kept", "candidates_run",
                        "case_file",
                    ],
                    "additionalProperties": False,
                    "properties": {
                        "configured": {"type": "integer", "minimum": 0},
                        "fuzzed_kept": {"type": "integer", "minimum": 0},
                        "candidates_run": {"type": "integer", "minimum": 0},
                        "case_file": {"type": "string"},
                    },
                },
                "coverage": {
                    "type": "object",
                    "required": [
                        "functional_pct", "conditional_pct", "report",
                    ],
                    "additionalProperties": False,
                    "properties": {
                        "functional_pct": _PCT,
                        "conditional_pct": _PCT,
                        "report": {"type": "string"},
                    },
                },
            },
        },
        "exit_code": {"enum": [0, 2]},
    },
}
