import numpy as np
import pytest
from hypothesis import settings

from wearbench import synth
from wearbench.session_io import ChannelKind, Label, SignalChannel

# Tier-1 draws the same examples on every run, so two runs at one commit
# test the same inputs and a failure repeats. ``--hypothesis-profile
# explore`` draws fresh ones; a test's own max_examples holds in both.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def default_spec():
    """The spec ``default_session`` is generated from: the ground truth
    of that session."""
    return synth.SynthSpec(seed=1234, duration_s=300.0,
                           scr_events=((60.0, 0.4), (180.0, 0.6)))


@pytest.fixture(scope="session")
def default_session(default_spec):
    """One fully featured synthetic session reused by read-only tests."""
    return synth.generate_session(default_spec)


def make_channel(kind: ChannelKind, samples, rate: float) -> SignalChannel:
    return SignalChannel(kind=kind, start_time=1700000000, sample_rate=rate,
                         samples=np.asarray(samples, dtype=float))


@pytest.fixture()
def make_session():
    """Factory for hand-built four-channel sessions."""

    def build(bvp=None, eda=None, acc=None, temp=None, n_seconds=90.0,
              label=Label.UNIPOLAR, subject_id="T001"):
        rng = np.random.default_rng(0)
        if bvp is None:
            bvp = rng.normal(0.0, 1.0, int(64 * n_seconds))
        if eda is None:
            eda = np.full(int(4 * n_seconds), 2.0)
        if acc is None:
            acc = rng.normal(0.0, 0.1, (int(32 * n_seconds), 3))
        if temp is None:
            temp = np.full(int(4 * n_seconds), 36.5)
        from wearbench.session_io import Session
        return Session(subject_id=subject_id, channels={
            ChannelKind.BVP: make_channel(ChannelKind.BVP, bvp, 64.0),
            ChannelKind.EDA: make_channel(ChannelKind.EDA, eda, 4.0),
            ChannelKind.ACC: make_channel(ChannelKind.ACC, acc, 32.0),
            ChannelKind.TEMP: make_channel(ChannelKind.TEMP, temp, 4.0),
        }, label=label)

    return build
