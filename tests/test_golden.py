"""Golden outputs: the sha256 of the stdout of fixed CLI commands.

The digests pin the exact bytes the calculator prints, so a change that
only means to make it faster cannot alter an answer unnoticed.  Most
commands print class values (universal P8 the deepest diagonal kernel,
nine reciprocal coefficients); the four ``verify`` runs pin the report
format and the witnesses' absence (the universal grid at truncation 10
holds the deepest series work, P3xP3xP3 the largest products on X x X);
the two ``ring --parse`` runs pin the term order of rendered ring
elements.  Two runs print classes as text (parenthesised coefficients
among them), one prints the point class and one the zero class, and two
dualize to cohomology on three factors.  A deliberate change of output must update the digest here and
say why.
"""

import hashlib

import pytest

from orient_duality.cli import main

MIXED_COH_P2xP2 = (
    '{"terms": [{"zeta": [0, 0], "coeff": "3"}, {"zeta": [1, 0], "coeff": "1/2*b1"}, '
    '{"zeta": [0, 2], "coeff": "-2"}, {"zeta": [2, 1], "coeff": "b1 + 5"}]}'
)
MIXED_HOM_P2xP1 = (
    '{"values": [{"zeta": [0, 0], "coeff": "beta^3"}, {"zeta": [1, 1], "coeff": "-4"}, '
    '{"zeta": [2, 0], "coeff": "2*beta"}, {"zeta": [2, 1], "coeff": "7"}]}'
)
# Term order of a rendered element: several symbols, fractions (4/2 is
# the integer 2), a monomial of weight exactly 9 kept, one of weight 10
# dropped, and b1 - b1 cancelled.
UNIVERSAL_ELEM = (
    "b8 - 7/3 + 1/2*b1*b3 - 3/4*b2^2 + 2/3*b1^4*b5 + b4*b4 - 5/6*b1^9 + b2*b7 "
    "+ 4/2*b3*b1^2*b2 - b1^10 + 3*b1^2*b2^2*b3 - 1/5*b1*b2*b3 + b6*b1^3 + b1 - b1 + 9/7*b5*b4"
)
# beta powers far above the truncation, which does not apply to beta
MULTIPLICATIVE_ELEM = "beta^40 - 3*beta^17 + 2 - beta + 5*beta^3 + 4*beta^25 - beta^40 + beta^41 + 7*beta^2*beta^9"
MIXED_COH_P2xP1 = (
    '{"terms": [{"zeta": [0, 0], "coeff": "1"}, {"zeta": [1, 0], "coeff": "-3*beta"}, '
    '{"zeta": [2, 1], "coeff": "2"}, {"zeta": [1, 1], "coeff": "beta^2"}]}'
)

# pushed along proj(1), which drops two factors: the fibre is P2xP2
MIXED_COH_P2xP1xP2 = '{"terms":[{"zeta":[2,1,0],"coeff":"b1"},{"zeta":[0,0,2],"coeff":"3"}]}'

# dualized to cohomology one factor at a time: three factors, and a P0 factor
MIXED_HOM_P4xP4xP4 = (
    '{"values": [{"zeta": [4, 4, 4], "coeff": "1"}, {"zeta": [1, 2, 3], "coeff": "1/2*b1"}, '
    '{"zeta": [0, 0, 0], "coeff": "-3"}, {"zeta": [2, 0, 1], "coeff": "b2 + 5"}]}'
)
MIXED_HOM_P2xP0xP1 = (
    '{"values": [{"zeta": [1, 0, 1], "coeff": "1/2*b1"}, {"zeta": [2, 0, 0], "coeff": "3"}]}'
)

GOLDEN = [
    (
        ["verify", "--format", "json"],
        "f7d1b654c661e7113336d3fdc0d0ff03f669b47a36328719a42dc9cd567858da",
    ),
    (
        [
            "verify", "--theory", "multiplicative", "--space", "P2xP2xP2,P3xP3xP1",
            "--samples", "1", "--format", "json",
        ],
        "9aa3faaf7028610da3a895551972c3bdc0bf36c154510cb7236e6ac2f7eb79db",
    ),
    (
        [
            "verify", "--theory", "multiplicative", "--space", "P3xP3xP3",
            "--samples", "1", "--format", "json",
        ],
        "e37167404380446876a82d13a5111f2a4789d1715db35a01ab19d6d69e0b5202",
    ),
    (
        [
            "verify", "--theory", "universal", "--space", "P1,P2,P3,P1xP1,P1xP2,P2xP2",
            "--truncation", "10", "--format", "json",
        ],
        "ba4b78f0e5b79dd04759b11ccd02ef22865999b90ceb6282aec6cee92bc1aab2",
    ),
    (
        ["kernel", "--theory", "universal", "--space", "P2xP2", "--format", "json"],
        "6fb334306ab1dd53d4d8ca07cb2799bd725f48a32ba9987cf551e514be1b92d3",
    ),
    (
        ["kernel", "--theory", "universal", "--space", "P8", "--format", "json"],
        "6554059faf806414914d4b5d8bef1606a38200d13fcda1fe4c67b51f99e8b720",
    ),
    (
        ["fundamental", "--theory", "universal", "--space", "P2xP3", "--format", "json"],
        "328748114e6bc4fb51d10911cd57bb62640605312cd5753d7698676338270d01",
    ),
    (
        ["fundamental", "--theory", "universal", "--space", "P2xP3xP1", "--format", "json"],
        "5fa0d3eb5303947af8f239b3ce07a566ccdc865429ef6e61e0626a06ccb15993",
    ),
    (
        [
            "dualize", "--theory", "universal", "--space", "P2xP2", "--direction", "to-hom",
            "--format", "json", "--class", MIXED_COH_P2xP2,
        ],
        "7ebd5e9a679c589bf9da1287c69635ad725ec96e2ee2f1e7ccf0e41d57e739aa",
    ),
    (
        [
            "dualize", "--theory", "multiplicative", "--space", "P2xP1", "--direction", "to-coh",
            "--format", "json", "--class", MIXED_HOM_P2xP1,
        ],
        "d6a359282b2894649f6bc40b16cca198fc5cb2d6126cddfb219190c696592fb0",
    ),
    (
        [
            "pushforward", "--theory", "multiplicative", "--space", "P2xP1",
            "--morphism", "proj(0,2);perm(1,0,2);diag(0)", "--format", "json",
            "--class", MIXED_COH_P2xP1,
        ],
        "ec5534ce876d699b0a080c54478d03699f97eb28f1d72adc40e4327b9c14bfb7",
    ),
    (
        [
            "pushforward", "--theory", "universal", "--space", "P2xP1xP2",
            "--morphism", "proj(1)", "--format", "json", "--class", MIXED_COH_P2xP1xP2,
        ],
        "1a3e35663d94f58551a39ff6155970e27d3c139d8ea7011f722c7cd41f32b2ac",
    ),
    (
        ["ring", "--theory", "universal", "--truncation", "9", "--parse", UNIVERSAL_ELEM],
        "1b5851c92fa856b1d42eba0c03bc4f5fc1a7a5d3353c959b2a6ef8691cf70118",
    ),
    (
        ["ring", "--theory", "multiplicative", "--truncation", "4", "--parse", MULTIPLICATIVE_ELEM],
        "b2d10782ffa48bc381d9240dbda60106f2d73de569ed042a87795c8889cb2573",
    ),
    (
        [
            "dualize", "--theory", "universal", "--space", "P4xP4xP4", "--direction", "to-coh",
            "--format", "json", "--class", MIXED_HOM_P4xP4xP4,
        ],
        "fc58b8acaebfddb879a761463adf73e4b1953b0b23aa082af0954bcdc0b6727a",
    ),
    (
        ["kernel", "--theory", "universal", "--space", "P2xP2xP2"],
        "ffba6b817023e32f94af81f1d329f55482196b67cb9ae482b6b95c395a1c220b",
    ),
    (
        ["fundamental", "--theory", "additive", "--space", "pt", "--format", "json"],
        "bb1d6d84caedbe76fa48f52008f9b4415c49ee293fa715f87cf24389797fff0f",
    ),
    (
        [
            "dualize", "--theory", "universal", "--space", "P2xP0", "--direction", "to-coh",
            "--format", "json", "--class", '{"values": []}',
        ],
        "39e3599202ad3cfb3c6556bc9d2bc2f09c86750a1c9e57be2fc907f875801e71",
    ),
    (
        [
            "dualize", "--theory", "universal", "--space", "P2xP0xP1", "--direction", "to-coh",
            "--class", MIXED_HOM_P2xP0xP1,
        ],
        "d863024b9a218ee23a566a2edf816bc1747a69e6b9707ea34317b0965743fcaa",
    ),
]

GOLDEN_IDS = [
    "verify-defaults",
    "verify-cube",
    "verify-multiplicative-P3xP3xP3",
    "verify-universal-grid",
    "kernel-universal-P2xP2",
    "kernel-universal-P8",
    "fundamental-universal-P2xP3",
    "fundamental-universal-P2xP3xP1",
    "dualize-to-hom-universal-P2xP2",
    "dualize-to-coh-multiplicative-P2xP1",
    "pushforward-multiplicative-P2xP1",
    "pushforward-universal-P2xP1xP2-proj1",
    "ring-parse-universal-9",
    "ring-parse-multiplicative-beta41",
    "dualize-to-coh-universal-P4xP4xP4",
    "kernel-universal-P2xP2xP2-text",
    "fundamental-additive-pt",
    "dualize-to-coh-universal-P2xP0-zero",
    "dualize-to-coh-universal-P2xP0xP1-text",
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_stdout(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
