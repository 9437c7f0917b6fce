"""The tool's output must not depend on PYTHONHASHSEED.

A plan derived from iterating a ``set`` of operator names changes with
the per-interpreter string-hash salt: fused-edge order in the deployment
plan, and the last bits of exit rates summed in that order.  ROADMAP
aim 3 asks that every result be reproducible from its seed, so the whole
pipeline — parse, fission, auto-fusion, generated program, deployment
plan — is run here in interpreters with different salts and must produce
byte-identical text.
"""

from __future__ import annotations

import os
import subprocess
import sys

#: Testbed (seed 42) topologies whose auto-fusion has several exits;
#: index 16 is one whose plan text differed between two runs.
INDICES = (9, 16, 33)

#: sha256 of (generated program, deployment plan) per index, as the
#: ElementTree-based reader produced them: a change to the reader, the
#: verifier or the key model must leave the tool's output byte-identical.
PINNED = {
    9: ("c9c1673120c819a1c07decf5ff87fb8e67a24ebaa3b761e36ad3011c6eebc81a",
        "754dc3f5b16ed4413fdf08fde9ae461f42abd55bb166470364c540ac8ad784e4"),
    16: ("2913d0359e0718447cbd55d267308af87a33f087be3858ca9d5d2f8ba49c0029",
         "1c4bcaf28de39da89493db9cecdb208125105ad5d3a41d46b55777ebc004bdcf"),
    33: ("506cae14034ff8d3f21b461b18aa3d6715769b026f178615c74c22606c87855b",
         "0d84e778975e54d8c3610d9806d3c1d4424339fadb743c0f574a52f7ee3f69f9"),
}

_PROBE = r"""
import hashlib
from repro.codegen.deployment import deployment_json
from repro.codegen.ss2py import generate_code
from repro.core.autofusion import auto_fuse
from repro.core.fission import eliminate_bottlenecks
from repro.topology import generate_testbed, parse_topology, topology_to_xml

testbed = generate_testbed(%d, seed=42)
for index in %r:
    topology = parse_topology(topology_to_xml(testbed[index]))
    fission = eliminate_bottlenecks(topology)
    fused = auto_fuse(fission.optimized)
    assert fused.operators_removed > 0, index
    program = generate_code(fission.optimized)
    plan = deployment_json(fused.fused, fusion_plans=fused.plans)
    for text in (program, plan):
        print(index, hashlib.sha256(text.encode("utf-8")).hexdigest())
""" % (max(INDICES) + 1, INDICES)


def _digests(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src_path = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_path)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return result.stdout


def test_tool_output_identical_across_hash_seeds():
    digests = {seed: _digests(seed) for seed in ("0", "1", "12345")}
    assert len(digests["0"].splitlines()) == 2 * len(INDICES)
    assert len(set(digests.values())) == 1, digests
    assert digests["0"] == "".join(f"{index} {digest}\n" for index in INDICES
                                   for digest in PINNED[index])
