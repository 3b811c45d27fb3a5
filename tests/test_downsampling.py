"""Acceptance criteria 3, 4a and 5 on downsampled streams.

The paper calls the method amenable to downsampling. Here each stream of
those criteria is thinned with ``downsample`` 2:4 (each run of 2 to 4
consecutive gaps becomes one gap, drawn with the stream's seed) and must
still meet the criterion's own bound, at the criterion's own seeds, k and
bin width. Nothing is re-chosen for the thinner stream.

Run as a script to print the envelope row for any group range:

    PYTHONPATH=src python tests/test_downsampling.py 4:8
"""

import sys

import numpy as np
import pytest

from renewalstream.characterization import characterize, difference
from renewalstream.errors import DegenerateBinError, StreamAnalysisError
from renewalstream.estimation import EstimationConfig, estimate_stream
from renewalstream.ingest import EventStream, downsample, inter_arrivals
from renewalstream.synth import gen_cluster, gen_poisson
from test_acceptance import (
    DET_M,
    DET_MEAN_GAP,
    K_BASELINE,
    M_BASELINE,
    detection_stream,
    report,
    run_detection,
)

GROUPS = (2, 4)


def thin(stream, lo: int, hi: int, seed: int) -> EventStream:
    """The stream `renewalstream downsample --downsample lo:hi --seed seed` writes."""
    grouped = downsample(inter_arrivals(stream), lo, hi, seed)
    gaps = np.concatenate([[0], grouped.values])
    return EventStream(stream.times[0] + np.cumsum(gaps))


def score(stream):
    emp, conv = estimate_stream(stream, EstimationConfig(k=K_BASELINE))
    return characterize(difference(emp, conv), emp.k, stream.rate)


def correlation_ordering(lo: int, hi: int) -> tuple[int, int]:
    """Criterion 3's 20 matched-rate pairs, thinned: (cluster > iid wins,
    iid streams in zone low)."""
    wins = low = 0
    for seed in range(1, 21):
        cluster = gen_cluster(6.0, 3.0, 1.0, M_BASELINE, seed)
        clustered = score(thin(cluster, lo, hi, seed))
        iid = score(thin(gen_poisson(4.0, M_BASELINE, seed), lo, hi, seed))
        wins += clustered.e_max_norm > iid.e_max_norm
        low += iid.zone == "low"
    return wins, low


def detections(streams, lo: int, hi: int) -> tuple[int, int]:
    """Criteria 4a and 5's detection on (seed, stream) pairs, thinned:
    (streams flagged, streams whose detection failed)."""
    flagged = failed = 0
    for seed, stream in streams:
        try:
            flagged += run_detection(thin(stream, lo, hi, seed))
        except StreamAnalysisError:
            failed += 1
    return flagged, failed


def trains(lo: int, hi: int) -> tuple[int, int]:
    return detections(((s, detection_stream(s)) for s in range(1, 21)), lo, hi)


def nulls(lo: int, hi: int) -> tuple[int, int]:
    streams = ((s, gen_poisson(DET_MEAN_GAP, DET_M, s)) for s in range(1000, 1100))
    return detections(streams, lo, hi)


def test_criterion_3_after_downsampling():
    wins, low = correlation_ordering(*GROUPS)
    report(
        "3 (correlation ordering, downsample 2:4)",
        wins >= 18,
        f"cluster > iid in {wins}/20 pairs, need >= 18; iid zone low in {low}/20",
    )


def test_criterion_4a_after_downsampling():
    flagged, failed = trains(*GROUPS)
    report(
        "4a (detection power, downsample 2:4)",
        flagged >= 18,
        f"{flagged}/20 seeds flagged, need >= 18; {failed} failed",
    )


def test_criterion_5_after_downsampling():
    flagged, failed = nulls(*GROUPS)
    report(
        "5 (false-alarm control, downsample 2:4)",
        flagged <= 15 and failed == 0,
        f"{flagged}/100 pure-background seeds flagged, allowed <= 15; "
        f"{failed} failed, allowed 0",
    )


@pytest.mark.parametrize("seed", [1000, 1001])
def test_degenerate_baseline_after_4_8_names_its_sub_density(seed):
    # a 4:8 gap sums 4-8 gaps of mean 240 s, so the density is zero over
    # most of lags 32-191 s: a lone non-zero bin there has a zero baseline
    stream = thin(gen_poisson(DET_MEAN_GAP, DET_M, seed), 4, 8, seed)
    with pytest.raises(
        DegenerateBinError,
        match=r"in sub-density 1 \(lags 32-64 s\); use a wider bin width \(--delta\)$",
    ):
        run_detection(stream)


if __name__ == "__main__":
    lo, hi = (int(n) for n in sys.argv[1].split(":"))
    wins, low = correlation_ordering(lo, hi)
    print(f"downsample {lo}:{hi}")
    print(f"criterion 3: cluster > iid in {wins}/20 pairs, iid zone low in {low}/20")
    print("criterion 4a: {}/20 flagged, {} failed".format(*trains(lo, hi)))
    print("criterion 5: {}/100 flagged, {} failed".format(*nulls(lo, hi)))
