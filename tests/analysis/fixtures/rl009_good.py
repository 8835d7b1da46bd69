# repro-lint test fixture: RL009 negatives.  Parsed only, never run.
import dataclasses
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor


def ship_rebuild_material(group, packets, seed):
    task = {
        "config": dataclasses.asdict(group.config),
        "codebook": group.codebook,
        "seed": seed,
        "wire": [packet.to_bytes() for packet in packets],
    }
    pool = ProcessPoolExecutor(max_workers=2)
    return pool.submit(solve, task)  # repro-lint: disable=RL009 — config, codebook, seed and wire bytes: workers rebuild the operator


async def thread_executor_exempt(loop, block64):
    workers = ThreadPoolExecutor()
    # thread executors share memory: no pickling, no finding
    return await loop.run_in_executor(workers, solve, block64)


async def default_executor_exempt(loop, block64):
    return await loop.run_in_executor(None, solve, block64)


def module_level_fn(tasks):
    pool = ProcessPoolExecutor()
    return pool.map(solve, tasks)  # repro-lint: disable=RL009 — module-level callable; tasks are seeds
