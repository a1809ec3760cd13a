"""Pinned simulated-output fingerprints.

Each digest is the sha256 of ``json.dumps(SimResult.to_dict(),
sort_keys=True)`` for one ``tiny``-scale cell, recorded before the core
run loops were fused.  A host-speed change to the cores, the executor or
the SVR unit must leave every digest unchanged; a deliberate model change
re-records them and says why.

The cells cover every core path: the in-order core bare, with SVR at two
vector lengths and with IMP; the OoO core bare and with Vector Runahead;
on a GAP kernel, an HPC kernel and two SPEC surrogates (one cached
gather, one load/store copy).

``SVR_VARIANT_FINGERPRINTS`` pins the SVR unit's non-default slot and
lane-state paths: several lanes per execute slot (Fig 16), the decoupled
issue context (Section VI-D), SRF exhaustion under DVR recycling, and
the widest vector length.  They were recorded before the SVR unit was
reduced to its single per-lane engine.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness.runner import run, technique
from repro.svr.config import RecyclingPolicy

FINGERPRINTS = {
    ("PR_KR", "inorder"): "dc4ee20f74b0e5b7ed124b52e5277038be203a6250a6ac66bc792cd50c1247f6",
    ("PR_KR", "svr16"): "e1e8798408ce09a412f360c7c16d5175e756ff9ed63c578ee297ef86863b481f",
    ("PR_KR", "svr64"): "a0ccb88c6d78d927687a2fc17f62532af9749fa16114ec34e67c10afaa9ce4c9",
    ("PR_KR", "imp"): "c62c42ddd09e502fee2457c49bfb3e254496961928f7fd8ca84f11ee0ced23ec",
    ("Camel", "ooo"): "575e2bbb6d98aaed4d29b4c560d415b74aec8a8829e9205f5deb80af5d52c9b5",
    ("Camel", "vr"): "dea44936f392a5da84324be032d6a8acab47846ea7064b73b4b863e1b4d745a3",
    ("Camel", "svr16"): "28b65928c24c72d31830f58c151bc122f65324c4416d446e84eb5b88abfb2344",
    ("mcf", "inorder"): "a2b3fc70c1da6ef3a044aa0549c5e7c0c98d977da6c69ae5b3b2f1a4a6e33ad7",
    ("mcf", "ooo"): "76d550d43450a872d83846fcf4bf667d16375f6eef4892bb33927e3104b6ff01",
    ("mcf", "svr64"): "1c7205fe6bf3049c1c5d3ff102c4e6ae489cc50bef80ed059682f3d7b0d5e9a8",
    ("lbm", "ooo"): "8dd62d79c319a49a62a8ab85c0975759dbf80e200578fc74c6fb5406b66bba88",
    ("lbm", "vr"): "f62b7b5ea67cdc35c63253bd9754f6d3b193aed0cc067494504ea0cac0dfb060",
}

# (workload, technique, SVR overrides) -> digest.
SVR_VARIANT_FINGERPRINTS = {
    ("Camel", "svr16", (("scalars_per_unit", 4),)):
        "05b856a9012fc8f6d15322dce4e6ff3625de540dadfdea9000ae5d124baa9519",
    ("PR_KR", "svr16", (("decoupled_context", True),)):
        "8504e8ff6376fd2ee00b4e67d8329c33c9f4d095ea7a76d8a415a08bbd2bedfc",
    ("HJ8", "svr16", (("recycling", RecyclingPolicy.DVR),
                      ("srf_entries", 2))):
        "a9a28ca78221e7538744c2e775bd4baec972a04cf40531d63b4f5ee3d233c62e",
    ("Kangr", "svr128", ()):
        "aab215958ee123204d980dde3216dd9ed95ed61a9e5ddcbdcec8ba6533b98f57",
}


def fingerprint(workload: str, tech_name: str, **svr_overrides) -> str:
    result = run(workload, technique(tech_name, **svr_overrides),
                 scale="tiny")
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("workload,tech_name", sorted(FINGERPRINTS))
def test_simulated_output_is_pinned(workload, tech_name):
    assert fingerprint(workload, tech_name) == \
        FINGERPRINTS[workload, tech_name]


@pytest.mark.parametrize(
    "workload,tech_name,overrides", list(SVR_VARIANT_FINGERPRINTS),
    ids=lambda v: v if isinstance(v, str)
    else ",".join(f"{k}={getattr(x, 'name', x)}" for k, x in v) or "default")
def test_svr_variant_output_is_pinned(workload, tech_name, overrides):
    assert fingerprint(workload, tech_name, **dict(overrides)) == \
        SVR_VARIANT_FINGERPRINTS[workload, tech_name, overrides]
