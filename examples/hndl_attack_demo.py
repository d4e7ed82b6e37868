#!/usr/bin/env python3
"""Harvest Now, Decrypt Later: the paper's motivating attack, end to end.

An adversary steals a hospital's encrypted archive (wire transcripts and
at-rest ciphertext) in year 0, then waits.  In year 15 the archive's cipher
falls to cryptanalysis.  We watch what happens to the same record stored in
a commercial cloud (AES at rest, TLS in transit) and in LINCOS (Shamir at
rest, QKD in transit).

Run:  python examples/hndl_attack_demo.py
"""

from repro import BreakTimeline, DeterministicRandom, make_node_fleet
from repro.adversary.harvest import HarvestingAdversary
from repro.systems import CloudProviderArchive, Lincos

BREAK_YEAR = 15
RECORD = (
    b"Patient 4711: genomic markers, psychiatric history, HIV status. "
    b"Sensitive for the patient's lifetime and their children's."
)


def main() -> None:
    # The threat model: AES, the TLS key exchange, and the session cipher
    # all fall in year 15 (a quantum computer, an algorithmic advance --
    # the cause does not matter, only that it cannot be ruled out).
    timeline = BreakTimeline()
    for primitive in ("aes-256-ctr", "toy-dh", "chacha20"):
        timeline.schedule_break(primitive, BREAK_YEAR)

    cloud = CloudProviderArchive(
        make_node_fleet(2, providers=["bigcloud"]), DeterministicRandom(1)
    )
    lincos = Lincos(make_node_fleet(5), DeterministicRandom(2))
    # The adversary taps the wire from the start: record what both send.
    cloud.record_transcript()
    lincos.record_transcript()

    print("year 0: hospital archives the record in both systems")
    cloud.store("patient-4711", RECORD)
    lincos.store("patient-4711", RECORD)

    print("year 0: adversary harvests everything it can reach:")
    adversary = HarvestingAdversary(timeline=timeline)

    # 1. Wire transcripts (TLS is recordable; QKD wire bytes are OTP).
    cloud_wire = cloud.transcript[0].transmission
    lincos_wire = lincos.transcript[0].transmission
    adversary.harvest(
        "cloud wire", 0, lambda tl, e: cloud.transit.break_open(cloud_wire, tl, e)
    )
    adversary.harvest(
        "lincos wire", 0, lambda tl, e: lincos.transit.break_open(lincos_wire, tl, e)
    )

    # 2. At-rest theft: the full cloud replica; two of five LINCOS shares
    #    (a sub-threshold haul -- the mobile-adversary benchmark covers the
    #    threshold case and the proactive defense).
    cloud_haul = cloud.steal_at_rest("patient-4711")
    lincos_haul = lincos.steal_at_rest("patient-4711", share_indices=[1, 2])
    adversary.harvest(
        "cloud at-rest", 0,
        lambda tl, e: cloud.attempt_recovery("patient-4711", cloud_haul, tl, e),
    )
    adversary.harvest(
        "lincos at-rest", 0,
        lambda tl, e: lincos.attempt_recovery("patient-4711", lincos_haul, tl, e),
    )
    print(f"  harvested: {len(cloud_haul)} cloud replica(s), "
          f"{len(lincos_haul)}/5 lincos shares, 2 wire transcripts\n")

    for year in (5, BREAK_YEAR, 40):
        print(f"year {year}:")
        for outcome in adversary.attempt_all(epoch=year):
            if outcome.success:
                status = "RECOVERED: " + outcome.recovered[:40].decode(errors="replace") + "..."
            else:
                status = "still safe (" + outcome.failure_reason.split(":")[0] + ")"
            print(f"  {outcome.label:16s} {status}")
        print()

    print("summary:")
    for label in ("cloud wire", "cloud at-rest", "lincos wire", "lincos at-rest"):
        first = adversary.first_success_epoch(label, horizon=100)
        verdict = f"falls in year {first}" if first is not None else "never falls"
        print(f"  {label:16s} {verdict}")
    print(
        "\nre-encrypting the cloud archive after year 15 would protect new "
        "reads -- but the year-0 harvested copy is already gone. That is the "
        "paper's 'showstopping attack' against every computational scheme."
    )


if __name__ == "__main__":
    main()
