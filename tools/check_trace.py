#!/usr/bin/env python3
"""Validate a /tracez?format=chrome export's structural invariants.

The input is Chrome trace-event JSON ({"traceEvents": [...]}) as emitted
by the GEA monitoring endpoint, loadable in Perfetto / chrome://tracing.
This checker enforces what a viewer merely tolerates:

  * the document is an object with a "traceEvents" list
  * every event carries ph, pid and tid
  * every non-metadata event carries a numeric ts >= 0; "X" slices also
    carry a numeric dur >= 0
  * events are sorted by ts in file order (metadata first)
  * every traced request (distinct args.trace_id on "stage" events)
    covers the core pipeline stages: decode, queue_wait, execute,
    encode, write
  * with --require-wal, at least one wal_fsync stage event exists
    somewhere in the export (the run included a WAL-logged mutation),
    and at least one flow of category "wal" is whole: an "s" event and
    an "f" event with the same id (the fsync span's arrow back to its
    request)

Usage:
    check_trace.py TRACE_JSON [--require-wal]

Exits non-zero with a message on the first violated invariant.
"""

import argparse
import json
import sys

CORE_STAGES = {"decode", "queue_wait", "execute", "encode", "write"}


def fail(message):
    print(f"check_trace: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--require-wal",
        action="store_true",
        help="require a wal_fsync stage event and a whole wal flow",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, "rb") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args.trace}: {e}")

    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        fail("document is not an object with a traceEvents list")
    events = doc["traceEvents"]
    if not events:
        fail("traceEvents is empty")

    last_ts = None
    stages_by_trace = {}
    wal_fsyncs = 0
    wal_flows = {"s": set(), "f": set()}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"event {i} is not an object")
        for key in ("ph", "pid", "tid"):
            if key not in event:
                fail(f"event {i} is missing {key!r}")
        ph = event["ph"]
        if ph == "M":
            if last_ts is not None:
                fail(f"metadata event {i} appears after timed events")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"event {i} ({ph!r}) has bad ts: {ts!r}")
        if last_ts is not None and ts < last_ts:
            fail(f"event {i} ts {ts} < preceding ts {last_ts}")
        last_ts = ts
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"slice {i} has bad dur: {dur!r}")

        if ph in wal_flows and event.get("cat") == "wal":
            wal_flows[ph].add(event.get("id"))

        event_args = event.get("args", {})
        if event.get("cat") == "stage":
            trace_id = event_args.get("trace_id")
            stage = event_args.get("stage")
            if trace_id is None or stage is None:
                fail(f"stage event {i} lacks trace_id/stage args")
            stages_by_trace.setdefault(trace_id, set()).add(stage)
            if stage == "wal_fsync":
                wal_fsyncs += 1

    if not stages_by_trace:
        fail("no stage events found — the run was not sampled")
    for trace_id, stages in sorted(stages_by_trace.items()):
        missing = CORE_STAGES - stages
        if missing:
            fail(
                f"trace {trace_id} is missing core stages: "
                f"{', '.join(sorted(missing))}"
            )
    whole_flows = wal_flows["s"] & wal_flows["f"]
    if args.require_wal:
        if wal_fsyncs == 0:
            fail("--require-wal: no wal_fsync stage event in the export")
        if not whole_flows:
            fail(
                "--require-wal: no wal flow with both an 's' and an 'f' "
                "event of the same id"
            )

    print(
        f"check_trace: OK — {len(events)} events, "
        f"{len(stages_by_trace)} traced requests, {wal_fsyncs} WAL fsyncs, "
        f"{len(whole_flows)} WAL flows"
    )


if __name__ == "__main__":
    main()
