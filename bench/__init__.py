"""The repository's benchmark: end-to-end and per-layer figures for the
tool, the DES and both runtimes (see ``bench/README.md``).

Run from the repository root::

    python3 -m bench run --workload hop_chain --seed 42 --seconds 10 --trace 0
    python3 -m bench run -o A.json           # the whole suite
    python3 -m bench compare A.json B.json
"""
