"""Failing reports: the sha256 of the JSON and of the text of suites that fail.

``tests/test_golden.py`` pins passing reports, whose witnesses are all
absent.  Each suite here runs a broken law, or a fault patched into
``verify``'s namespace, over three theories x P1, P2, P1xP1 and P2xP0xP1
with two samples.  Between them every check V1-V16 fails in every theory,
so the witnesses' bytes are pinned: the identity, both sides and the
inputs, in their order, and the errors of checks that a broken law makes
raise.  A deliberate change of a witness must update the digest here and
say why.
"""

import functools
import hashlib
import pytest

import orient_duality.verify as verify_mod
from orient_duality.algebra import RingKind
from orient_duality.fgl import law_for
from orient_duality.gysin import kernel
from orient_duality.spaces import CohClass, LinearEmbed, Projection, Space
from orient_duality.verify import CheckConfig, reports_to_json, reports_to_table, run_suite

from law_mutants import with_flipped_coefficient

ALL = (RingKind.ADDITIVE, RingKind.MULTIPLICATIVE, RingKind.UNIVERSAL)
SPACES = (Space((1,)), Space((2,)), Space((1, 1)), Space((2, 0, 1)))


def _flipped_laws(keep_log):
    """Each theory's law at truncation 6 with a(1,1) flipped, its kernels
    kept stale (and its logarithm too, with ``keep_log``)."""
    laws = {}
    for kind in ALL:
        law = law_for(kind, 6)
        law.log()
        kernel(law, 1)
        kernel(law, 2)
        laws[kind] = with_flipped_coefficient(law, 1, 1, keep_log=keep_log)
    return laws


def _doubled_c(real):
    # the kernel matrix C of P^n, doubled
    return lambda law, n: tuple(tuple(c * 2 for c in row) for row in real(law, n))


# (name in verify's namespace, real -> fault); each comment names the checks that fail
FAULTS = {
    "diagonal-kernel-x2": ("diagonal_kernel_class", lambda real: lambda s, law: real(s, law) * 2),  # V8, V9
    "pushforward-rich-projection-plus-1": (  # V5-V7
        "pushforward_coh",
        lambda real: lambda f, a, law: real(f, a, law) + CohClass.one(f.target, law.ring)
        if isinstance(f, Projection) and len(a.terms) > 1
        else real(f, a, law),
    ),
    "psi-x2": ("psi", lambda real: lambda i, p, a: real(i, p, a) * 2),  # V3, V14
    "cross-x3": ("cross_hom", lambda real: lambda a, b: real(a, b) * 3),  # V16
    "euler-negated-degree-sum-0": (  # V2, additivity
        "euler",
        lambda real: lambda s, d, law: -real(s, d, law) if sum(d) == 0 else real(s, d, law),
    ),
    "euler-plus-1-negative-degree": (  # V2, the constant-term guard
        "euler",
        lambda real: lambda s, d, law: real(s, d, law) + CohClass.one(s, law.ring)
        if any(x < 0 for x in d)
        else real(s, d, law),
    ),
    "duality-to-coh-x2": ("duality_to_coh", lambda real: lambda a, law: real(a, law) * 2),  # V10, V11
    "shriek-embedding-x2": (  # V4, V6, V7, V11
        "shriek_hom",
        lambda real: lambda f, a, law: real(f, a, law) * 2 if isinstance(f, LinearEmbed) else real(f, a, law),
    ),
    "pushforward-projection-x2": (  # V6, V7, V11, V15
        "pushforward_coh",
        lambda real: lambda f, a, law: real(f, a, law) * 2 if isinstance(f, Projection) else real(f, a, law),
    ),
    "apply-law-plus-xy": ("apply_law", lambda real: lambda law, x, y: real(law, x, y) + x * y),  # V1
    "kernel-c-x2": ("kernel", _doubled_c),  # V12 (multiplicative, universal), V13
    "diamond-coh-plus-identity": (  # V12
        "diamond_coh",
        lambda real: lambda p, law: (lambda op: lambda c: op(c) + c)(real(p, law)),
    ),
}

SUITES = ("law-stale-caches", "law-stale-kernels", *FAULTS)

# suite -> (sha256 of reports_to_json, sha256 of reports_to_table)
DIGESTS = {
    "law-stale-caches": (
        "4802ff25f6baa01eec61c27f367da15a97bab567969a1d6b3cbea7fe71566a64",
        "e49d7ce9b8ffe8d8b58db598529a3f95db34cda670ee3641dec467c0ef7488bb",
    ),
    "law-stale-kernels": (
        "c6aacca83489a4b127e44c64abec55d17dd51784bec19a572fa8389207c9c3bf",
        "ec08b1cf4d11cdf7a3a9091fa8fd018a148172996204cf680c7a7c885ce42fda",
    ),
    "diagonal-kernel-x2": (
        "650344acc45b561c30279e36897fff947279ac77cb1485ee91eb6d14f91d2865",
        "d62589866a3964d4bc93b4129943c7b373bc6b05a48e9386da477cde8952514a",
    ),
    "pushforward-rich-projection-plus-1": (
        "7f143c8284be78aa21467d55f1b785534ce4a0a8d257be1232414b144d84f3fc",
        "67e379b7dd69c3902cdb540496750f8b356feca3edb8657dcaeba197e2c2bd3e",
    ),
    "psi-x2": (
        "ac7a05cf598bc16e7ca536e6f33172d8de47d835094cd541e00c4070202a746b",
        "4337708695f118581885c11281d20ce45a2a87ad09ab8422a4153cd8bab94033",
    ),
    "cross-x3": (
        "93405ac38d7709f5004a56c710d9d76cc5a53b93475d18bd58651137567cef6d",
        "d53237bc22aac92bd1f84fcd5d83c5268cb81825f226ebced1b7a1922ac32f02",
    ),
    "euler-negated-degree-sum-0": (
        "afec08279aec073972db7a2979bc3d17da1ba95f2fb9668118abd27d59f3c965",
        "9934b350f31ec0e3a48856f74af32c23887ade30a9a2d00dc12992881653d522",
    ),
    "euler-plus-1-negative-degree": (
        "7af5a9cb577f6ccabd7e1413540b7f1a4f0d377e072949f0c5bb48ea54f001d6",
        "1b7ba8b11536d9144d9d9df5c094b6c945dfbf8dfc6910c9780884bed40c07bf",
    ),
    "duality-to-coh-x2": (
        "059fa172250f4fc903fd8f30001ddbe2f8cae2c319491a33b6e433bc6d0e14e0",
        "2f52e6c924cd6cab834f51ff460a0b827dc77def749ef17caab06cb605e6f31e",
    ),
    "shriek-embedding-x2": (
        "290b96b6c8e8d014c5e38279243afdab4139c652a5ec280fa18c0dc00c4ce6bc",
        "b356ef5167745793375a43d4d2f06b37a68267c88aa68ab50af059454b7eeb39",
    ),
    "pushforward-projection-x2": (
        "61520e487760be87a1476d73f1290013fbd23000cc2db6c34b8f9967a5776c49",
        "6c8b7f53df4dcdd2280ff431318c0e985bbb6cd4102fcf62c3e50df91cc71b0a",
    ),
    "apply-law-plus-xy": (
        "4b1fa45841514a9d0c8440bd856fa6c53900a8d2ffc0376874cf1b421b21fd28",
        "5232dce05a62042cebf05009880fa3d76b07459a3e1db5ba45235af6eedd75c9",
    ),
    "kernel-c-x2": (
        "42f59a633523a7988ebe88d68fec4134fcdb379b8a8dc5d16e9bea64eb83bfff",
        "2b0415a16a4e95f0f124d0437335fc29a6aed4a8625f98426996e24ef954e0ac",
    ),
    "diamond-coh-plus-identity": (
        "16eb3333aad904954bab3302d867c5d9287685e87faa7c3b2b8e636592fd866f",
        "be9579af46ff6a6326057b31a424f0c7e91f9f18e03e2239166ad437289b3eff",
    ),
}


@functools.cache
def _reports(suite):
    """The reports of one suite, run once per session."""
    if suite in FAULTS:
        name, wrap = FAULTS[suite]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(verify_mod, name, wrap(getattr(verify_mod, name)))
            return run_suite(CheckConfig(theories=ALL, spaces=SPACES, truncation=4, samples=2))
    # stale caches fail V1 and V4; stale kernels alone fail V4 and V9-V13,
    # and in the universal theory most checks, some with an error
    laws = _flipped_laws(keep_log=suite == "law-stale-caches")
    return run_suite(CheckConfig(theories=ALL, spaces=SPACES, truncation=6, samples=2), laws=laws)


@pytest.mark.parametrize("suite", SUITES)
def test_failing_report_bytes(suite):
    reports = _reports(suite)
    texts = (reports_to_json(reports), reports_to_table(reports))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
    assert digests == DIGESTS[suite]


def test_every_check_fails_in_every_theory():
    failed = {(r.check, r.theory) for suite in SUITES for r in _reports(suite) if r.status == "fail"}
    assert failed == {(cid, kind.value) for cid in verify_mod.CHECK_IDS for kind in ALL}
