"""Property test: no configuration the library accepts makes numpy warn.

A drawn config is either refused when built (ConfigurationError), or its
lone run_point and its two-SNR run_sweep run with every warning an error:
they return records, or raise a SingularMatrixError that names its cell
(and, where the precoder rule refused, a finite scale). The weights reach
u = 1.3e154, whose u^2 is finite, and m = 1e300, and the effective SNR
spans -3082.5 to 4000 dB, past the noise-draw bound at about -3066.9 dB.
The examples are derandomized, so the suite draws the same cases on every
run; the three explicit ones are inputs that once warned or were refused
wrongly, which the draws seldom reach: a noise draw that overflows, an
LMMSEP ridge m N0 near 1e157 whose raw power is too small for n_tx / power
to be finite, and a ULZFP u = 1e154 whose precoder rule took a norm near
sqrt(8) u^2, past the largest float.
"""

import re
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulpsim.config import LABELS
from ulpsim.errors import ConfigurationError, SingularMatrixError
from ulpsim.harness import SimulationConfig, run_point, run_sweep
from ulpsim.precoder import SchemeMode

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)


@PROPERTY
@example(label="LZFP", u=0.0, m=0.0, effective_snr=-3075.0, offset=-1.0)
@example(label="LMMSEP", u=1.0, m=1e300, effective_snr=1430.0, offset=0.0)
@example(label="ULZFP", u=1e154, m=0.0, effective_snr=20.0, offset=0.0)
@given(label=st.sampled_from(LABELS), u=st.floats(0.0, 1.3e154), m=st.floats(0.0, 1e300),
       effective_snr=st.floats(-3082.5, 4000.0), offset=st.floats(-100.0, 100.0))
def test_accepted_config_runs_without_warnings(label, u, m, effective_snr, offset):
    snr_db = effective_snr - offset
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scheme = SchemeMode.from_label(label, u=u, m=m)
            config = SimulationConfig(schemes=(scheme,), snr_db=(snr_db, snr_db + 3.0),
                                      snr_offset_db=offset, realizations=2, frames=1,
                                      symbols_per_frame=8)
        except ConfigurationError:
            return
        cells = "|".join(re.escape(f"(scheme {label}, {s} dB): ") for s in config.snr_db)
        try:
            record = run_point(config, scheme, snr_db)
            table = run_sweep(config)
        except SingularMatrixError as exc:
            assert re.match(rf"precoder build failed at realization \d+ ({cells})", str(exc))
            # A refusal at an infinite scale blames the matrix for the rule's own overflow.
            assert "scale inf" not in str(exc)
            return
    assert record.scheme_label == label
    assert [r.snr_db for r in table.records] == list(config.snr_db)
