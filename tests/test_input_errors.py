"""Malformed input to the library raises, with a message that names the fault."""

import numpy as np
import pytest

from convext.c1 import build_construction
from convext.envelope import Generator, _as_points, build_envelope
from convext.jet import Jet
from convext.modulus import (
    HolderModulus,
    LinearModulus,
    TableModulus,
    modulus_from_json,
    modulus_to_json,
    validate_modulus,
)

HALFSQ = Jet([[0.0], [1.0]], [0.0, 0.5], [[0.0], [1.0]])
PLANE = Jet([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
JET_JSON = {"dimension": 1, "points": [[0.0]], "values": [0.0], "gradients": [[0.0]]}

CASES = {
    "table-knot-shape": (lambda: TableModulus([0.0, 1.0]), ValueError, "knots must be an"),
    "table-abscissae": (lambda: TableModulus([[0.0, 0.0], [1.0, 1.0], [1.0, 1.5]]), ValueError,
                        "knot abscissae must be strictly increasing"),
    "table-knot-nan": (lambda: TableModulus([[0.0, 0.0], [1.0, np.nan], [2.0, 3.0]]), ValueError,
                       r"knots must be finite, got \[\[0.0, 0.0\], \[1.0, nan\]"),
    "table-knot-inf": (lambda: TableModulus([[0.0, 0.0], [1.0, 1.0], [np.inf, 3.0]]), ValueError,
                       "knots must be finite"),
    "json-scale-inf": (lambda: modulus_from_json({"type": "holder", "alpha": 0.5, "scale": np.inf}),
                       ValueError, "scale factor must be finite and positive, got inf"),
    "json-table-no-knots": (lambda: modulus_from_json({"type": "table"}), ValueError,
                            "modulus JSON of type 'table' is missing 'knots'"),
    "json-holder-no-alpha": (lambda: modulus_from_json({"type": "holder", "scale": 2.0}), ValueError,
                             "modulus JSON of type 'holder' is missing 'alpha'"),
    "json-holder-alpha-null": (lambda: modulus_from_json({"type": "holder", "alpha": None}), ValueError,
                               "modulus JSON field 'alpha' must be a number, got None"),
    "json-holder-alpha-bool": (lambda: modulus_from_json({"type": "holder", "alpha": True}), ValueError,
                               "modulus JSON field 'alpha' must be a number, got True"),
    "json-scale-list": (lambda: modulus_from_json({"type": "linear", "scale": [1]}), ValueError,
                        r"modulus JSON field 'scale' must be a number, got \[1\]"),
    "json-unknown-type": (lambda: modulus_from_json({"type": "gaussian"}), ValueError,
                          "unknown modulus type 'gaussian'"),
    "json-unknown-kind": (lambda: modulus_to_json(object()), TypeError, "cannot serialize modulus"),
    "validate-empty-grid": (lambda: validate_modulus(HolderModulus(0.5), []), ValueError,
                            "grid must be non-empty"),
    "jet-3d-points": (lambda: Jet(np.zeros((2, 1, 1)), [0.0, 0.0], np.zeros((2, 1))), ValueError,
                      r"points must form an \(n, d\) array"),
    "jet-non-finite": (lambda: Jet([[0.0], [1.0]], [0.0, np.inf], [[0.0], [1.0]]), ValueError,
                       "jet data must be finite"),
    "jet-json-missing-key": (lambda: Jet.from_json({"dimension": 1, "points": [[0.0]]}), ValueError,
                             "jet JSON is missing or malformed"),
    "jet-json-dimension": (lambda: Jet.from_json(dict(JET_JSON, dimension=2)), ValueError,
                           "points have dimension 1, expected 2"),
    "jet-json-dimension-text": (lambda: Jet.from_json(dict(JET_JSON, dimension="x")), ValueError,
                                "jet JSON field 'dimension' is not numeric"),
    "jet-json-dimension-fraction": (lambda: Jet.from_json(dict(JET_JSON, dimension=1.7)), ValueError,
                                    "jet JSON field 'dimension' must be an integer, got 1.7"),
    "jet-json-dimension-inf": (lambda: Jet.from_json(dict(JET_JSON, dimension=np.inf)), ValueError,
                               "jet JSON field 'dimension' is not numeric"),
    "jet-json-dimension-bool": (lambda: Jet.from_json(dict(JET_JSON, dimension=True)), ValueError,
                                "jet JSON field 'dimension' must be an integer, got True"),
    "jet-json-zero-dimension": (lambda: Jet.from_json({"dimension": 0, "points": [[], []], "values": [0.0, 1.0],
                                                       "gradients": [[], []]}), ValueError,
                                "jet points need at least one coordinate"),
    "jet-json-points-text": (lambda: Jet.from_json(dict(JET_JSON, points=[["a"]])), ValueError,
                             "jet JSON field 'points' is not numeric"),
    "jet-json-values-text": (lambda: Jet.from_json(dict(JET_JSON, values=["a"])), ValueError,
                             "jet JSON field 'values' is not numeric"),
    "jet-json-gradients-text": (lambda: Jet.from_json(dict(JET_JSON, gradients=[[{}]])), ValueError,
                                "jet JSON field 'gradients' is not numeric"),
    "points-width": (lambda: _as_points(np.zeros((3, 2)), 3), ValueError,
                     r"expected points of dimension 3, got shape \(3, 2\)"),
    "points-flat-size": (lambda: _as_points([1.0, 2.0], 3), ValueError,
                         r"expected points of dimension 3, got shape \(2,\)"),
    "no-cap-configured": (lambda: build_envelope(Generator(HALFSQ, LinearModulus(), 1.0), [-2.0], [3.0], 33)
                          .lipschitz_value_many([0.5]), ValueError, "no Lipschitz cap configured"),
    "cap-nan": (lambda: build_envelope(Generator(HALFSQ, LinearModulus(), 1.0), [-2.0], [3.0], 33,
                                       lipschitz_cap=np.nan), ValueError, "lipschitz_cap must be finite"),
    "cap-inf": (lambda: build_envelope(Generator(HALFSQ, LinearModulus(), 1.0), [-2.0], [3.0], 33,
                                       lipschitz_cap=np.inf), ValueError, "lipschitz_cap must be finite"),
    "cap-negative": (lambda: build_envelope(Generator(HALFSQ, LinearModulus(), 1.0), [-2.0], [3.0], 33,
                                            lipschitz_cap=-1.0), ValueError, "lipschitz_cap must be finite"),
    "box-bound-count": (lambda: build_envelope(Generator(PLANE, LinearModulus(), 1.0), [-1.0], [2.0], 33),
                        ValueError, "domain box must have 2 bounds per side"),
    "box-nan": (lambda: build_envelope(Generator(HALFSQ, LinearModulus(), 1.0), [np.nan], [2.0], 33),
                ValueError, r"domain box must be finite, got lo \[nan\] and hi \[2.0\]"),
    "box-inf": (lambda: build_envelope(Generator(HALFSQ, LinearModulus(), 1.0), [-2.0], [np.inf], 33),
                ValueError, r"domain box must be finite, got lo \[-2.0\] and hi \[inf\]"),
    "box-degenerate": (lambda: build_envelope(Generator(HALFSQ, LinearModulus(), 1.0), [1.0], [1.0], 33),
                       ValueError, "domain box is degenerate"),
    "construction-t-grid": (lambda: build_construction(HALFSQ, t_grid=[0.5, 0.25]), ValueError,
                            "t_grid must be positive and strictly increasing"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_input_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()
