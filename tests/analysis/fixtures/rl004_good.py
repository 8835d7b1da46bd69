# repro-lint test fixture: RL004 negatives.  Parsed only, never run.


def instrument(meter, registry, name):
    meter.inc("ingest_windows_decoded")  # declared counter
    meter.inc("ingest_flushes", reason="deadline")  # declared label
    meter.observe("ingest_stage_seconds", 0.2, stage="solve")  # declared
    registry.set_gauge("ingest_queue_depth", 3, group="g0")
    bound = registry.meter(stream="s1")
    meter.inc(name)  # dynamic name: out of static reach, skipped
    return bound
