"""The repo's end-to-end benchmark (see ``README.md`` beside this file).

``python3 -m benchmarks.e2e --seed 2011`` runs the four named workloads
at full size and prints every end-to-end and per-layer metric;
``python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace
0|1`` is the one-workload form the root ``BENCHMARK.json`` declares.
Importing this package starts nothing and imports neither numpy nor
``repro``: the runner is stdlib-only and every measurement happens in
a child process (:mod:`benchmarks.e2e.child`).
"""
