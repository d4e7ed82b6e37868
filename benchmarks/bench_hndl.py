"""Harvest Now, Decrypt Later across all eight systems.

The paper's showstopper argument: "re-encryption does nothing to protect
portions of any stolen ciphertext."  For each system, the adversary steals
everything (wire + at rest) at epoch 0, every computational primitive breaks
at epoch 10, and we record when (if ever) each system's data falls.
"""


from repro.adversary.harvest import HarvestingAdversary
from repro.analysis.report import render_table
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.storage.node import make_node_fleet
from repro.systems import (
    AontRsArchive,
    ArchiveSafeLT,
    CloudProviderArchive,
    HasDpss,
    Lincos,
    Pasis,
    Potshards,
    VsrArchive,
)

BREAK_EPOCH = 10
HORIZON = 40
SECRET = b"long-lived secret: must outlive every cipher" * 8


def build_systems():
    return [
        CloudProviderArchive(make_node_fleet(2, providers=["aws"]), DeterministicRandom(1)),
        ArchiveSafeLT(make_node_fleet(2, providers=["org"]), DeterministicRandom(2)),
        AontRsArchive(make_node_fleet(6), DeterministicRandom(3)),
        Potshards(make_node_fleet(8), DeterministicRandom(4)),
        Lincos(make_node_fleet(5), DeterministicRandom(5)),
        Pasis(make_node_fleet(8), DeterministicRandom(6)),
        VsrArchive(make_node_fleet(8), DeterministicRandom(7)),
        HasDpss(make_node_fleet(8), DeterministicRandom(8)),
    ]


def break_everything_at(epoch: int) -> BreakTimeline:
    timeline = BreakTimeline()
    for name in ("aes-128-ctr", "aes-256-ctr", "chacha20", "sha256",
                 "hmac-sha256", "hkdf-sha256", "toy-dh", "toy-rsa",
                 "lamport-ots", "winternitz-ots", "merkle-wots", "aont",
                 "aont-rs", "feldman-vss", "cascade"):
        timeline.schedule_break(name, epoch)
    return timeline


#: Paper expectation (Table 1 at-rest column): which systems' *sub-threshold*
#: at-rest haul falls once everything computational breaks.
EXPECTED_FALLS = {
    "AWS/Azure/Google Cloud": True,
    "ArchiveSafeLT": True,
    "AONT-RS": True,
    "POTSHARDS": False,
    "LINCOS": False,
    "PASIS": False,  # Shamir-policy objects
    "VSR Archive": False,
    "HasDPSS": False,
}


def run_hndl_campaign():
    timeline = break_everything_at(BREAK_EPOCH)
    adversary = HarvestingAdversary(timeline=timeline)
    systems = build_systems()
    for system in systems:
        system.store("doc", SECRET)
        # Sub-threshold at-rest theft: strictly fewer shares than the
        # reconstruction threshold, so ONLY cryptanalysis can help.
        receipt = system.receipt("doc")
        indices = sorted(receipt.placement.node_by_share)
        threshold = receipt.metadata.get("threshold") or receipt.metadata.get("t") \
            or receipt.metadata.get("shamir_t") or 1
        sub = indices[: max(1, min(len(indices) - 1, threshold - 1))]
        stolen = system.steal_at_rest("doc", share_indices=sub)

        def attempt(tl, epoch, system=system, stolen=stolen):
            return system.attempt_recovery("doc", stolen, tl, epoch)

        adversary.harvest(system.name, 0, attempt)
    rows = []
    for system in systems:
        first = adversary.first_success_epoch(system.name, HORIZON)
        rows.append((system.name, first))
    return rows


def test_hndl_artifact(benchmark, emit_artifact):
    hndl_results = benchmark.pedantic(run_hndl_campaign, rounds=1, iterations=1)
    table = render_table(
        headers=["System", "Sub-threshold haul falls at epoch", "Paper expectation"],
        rows=[
            (
                name,
                "never (ITS)" if first is None else str(first),
                "falls" if EXPECTED_FALLS[name] else "survives",
            )
            for name, first in hndl_results
        ],
        title=f"Harvest Now, Decrypt Later: all computational primitives break at epoch {BREAK_EPOCH}",
    )
    emit_artifact("hndl", table)
    for name, first in hndl_results:
        if EXPECTED_FALLS[name]:
            assert first == BREAK_EPOCH, f"{name} should fall exactly at the break"
        else:
            assert first is None, f"{name} should never fall"


def test_aont_rs_threshold_theft_needs_no_break(benchmark, emit_artifact):
    """The paper's AONT-RS caveat: k shards open with zero cryptanalysis."""

    def steal_and_open():
        system = AontRsArchive(make_node_fleet(6), DeterministicRandom(9))
        system.store("doc", SECRET)
        stolen = system.steal_at_rest("doc", share_indices=[0, 1, 2, 3])
        return system.attempt_recovery("doc", stolen, BreakTimeline(), epoch=0)

    recovered = benchmark.pedantic(steal_and_open, rounds=1, iterations=1)
    assert recovered == SECRET
    emit_artifact(
        "hndl_aontrs_threshold",
        "AONT-RS threshold theft: k=4 shards recovered the plaintext at "
        "epoch 0 with no broken primitives (key embedded in package).",
    )


def test_bench_hndl_campaign(benchmark):
    def campaign():
        timeline = break_everything_at(BREAK_EPOCH)
        adversary = HarvestingAdversary(timeline=timeline)
        system = CloudProviderArchive(
            make_node_fleet(2, providers=["aws"]), DeterministicRandom(10)
        )
        system.store("doc", SECRET)
        stolen = system.steal_at_rest("doc")
        adversary.harvest(
            "cloud", 0, lambda tl, e: system.attempt_recovery("doc", stolen, tl, e)
        )
        return adversary.first_success_epoch("cloud", HORIZON)

    assert benchmark.pedantic(campaign, rounds=3, iterations=1) == BREAK_EPOCH
