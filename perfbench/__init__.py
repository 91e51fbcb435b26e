"""The repository benchmark: ``train``, ``forecast`` and ``serve`` workloads
measured end to end, with a separate traced run for the per-layer view.

Run it from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

``src/`` is measured from outside: workload inputs are generated here from
the seed, and the traced run wraps the library's public functions from this
package instead of relying on spans inside the program.
"""
