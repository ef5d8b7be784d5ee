"""End-to-end acceptance for the measurement & calibration plane.

The tentpole walk: bundled scenario -> registry -> attach to the live
simulation -> cyclic DAQ list into an MTF store -> post-build
calibration applied mid-run while a pre-compile write is refused ->
the MTF file summarized by ``repro stats`` and seek-queried in O(1)
blocks.  Plus the determinism contract: DAQ digests are byte-identical
across ``jobs=1``, ``jobs=4`` and a resumed run.
"""

import pytest

from repro.errors import ConfigurationError
from repro.meas import (MeasurementService, MtfReader, MtfWriter,
                        build_registry, default_daq, measure_models)
from repro.model.cli import model_from_ref
from repro.units import ms, us
from repro.verify.oracle import build_system


@pytest.fixture(scope="module")
def scenario():
    return model_from_ref("adas-fusion")


def test_full_measurement_walk(tmp_path, scenario):
    # 1. Registry from the bundled scenario: stable digest.
    registry = build_registry(scenario)
    assert registry.digest() == build_registry(scenario).digest()

    # 2. Attach to the live simulation.
    system = scenario.build()
    built = build_system(system)
    service = MeasurementService.attach(built, system)
    assert service.registry.digest() == registry.digest()
    service.connect()

    # 3. Cyclic DAQ list streaming into an MTF store.
    path = str(tmp_path / "walk.mtf")
    service.start_daq(default_daq(service.registry, period=ms(1)),
                      sink=MtfWriter(path, chunk_records=16))

    # 4. Mid-run calibration: schedule a post-build write and a
    #    pre-compile attempt while the simulation is running.
    outcome = {}

    def calibrate():
        old = service.read("calib.chain.timeout")
        service.write("calib.chain.timeout", old * 2)
        outcome["applied"] = service.read("calib.chain.timeout")
        try:
            service.write("calib.chain.data_id", 999)
        except ConfigurationError as exc:
            outcome["refused"] = str(exc)

    built.sim.schedule_at(ms(20), calibrate)
    built.sim.run_until(ms(60))
    service.detach()

    # The post-build write took effect on the live receiver; the
    # pre-compile write was refused with the freeze message.
    assert outcome["applied"] == built.receiver.profile.timeout
    assert "pre-compile" in outcome["refused"]
    assert service.writes_applied == 1 and service.writes_refused == 1
    frame = service.dem.event("meas.calibration").freeze_frame
    assert frame["parameter"] == "chain.timeout"
    assert frame["time"] == ms(20)

    # 5. The MTF store is sealed, summarized by `repro stats`, and a
    #    narrow seek touches only the overlapping blocks.
    from repro.obs.stats import summarize_paths

    summary = summarize_paths([path])
    assert "MTF store" in summary and "daq.daq0:sim.now" in summary
    with MtfReader(path) as reader:
        # 61 ticks in 16-record blocks: [0,15] [16,31] [32,47] [48,60]
        # ms — a query inside the second block reads only that block.
        rows = reader.read("daq.daq0:sim.now", start=ms(20), end=ms(24))
        assert [t for t, __ in rows] == [ms(t) for t in range(20, 25)]
        assert reader.blocks_read == 1
        assert reader.block_count("daq.daq0:sim.now") == 4


def test_daq_digest_parity_jobs_and_resume(tmp_path, scenario):
    report_1 = measure_models([scenario], period=us(500),
                              horizon=ms(30), jobs=1)
    report_4 = measure_models([scenario], period=us(500),
                              horizon=ms(30), jobs=4)
    assert report_1.sample_count == report_4.sample_count > 0
    assert report_1.digest() == report_4.digest()
    # A checkpointed run resumed from its own journal digests the same.
    journal = str(tmp_path / "daq.jsonl")
    measure_models([scenario], period=us(500), horizon=ms(30),
                   checkpoint=journal)
    resumed = measure_models([scenario], period=us(500), horizon=ms(30),
                             checkpoint=journal, resume=True)
    assert resumed.digest() == report_1.digest()


def test_verify_with_daq_keeps_report_digest(scenario):
    from repro.model import verify_models

    plain = verify_models([scenario])
    with_daq = verify_models([scenario], daq_period=ms(1))
    # DAQ riding along must not perturb the verification digest...
    assert plain.digest() == with_daq.digest()
    assert plain.passed and with_daq.passed
    # ...while the measurement digest is populated and jobs-invariant.
    assert with_daq.daq_sample_count > 0
    parallel = verify_models([scenario], daq_period=ms(1), jobs=2)
    assert parallel.measurement_digest() == with_daq.measurement_digest()
    assert plain.daq_sample_count == 0


def test_verify_many_with_daq_parity():
    from repro.verify import verify_many

    one = verify_many(7, 2, "small", daq_period=ms(1))
    two = verify_many(7, 2, "small", daq_period=ms(1), jobs=4)
    assert one.measurement_digest() == two.measurement_digest()
    assert one.daq_sample_count == two.daq_sample_count > 0
    assert one.digest() == two.digest()


def test_verify_plan_labels_keep_journals_resumable():
    """A checkpoint journal is keyed by the plan fingerprint, which
    covers the label: the four verify labels must stay byte-identical
    for journals written by earlier versions to resume."""
    from repro.verify.oracle import verify_plan

    labels = [verify_plan(kind, scope, (), None, period, 0).label
              for kind, scope in (("verify", "size=small"),
                                  ("model-verify", "n=1"))
              for period in (None, ms(1))]
    assert labels == ["verify:size=small:horizon=None",
                      "verify-daq:size=small:horizon=None:period=1000000",
                      "model-verify:n=1:horizon=None",
                      "model-verify-daq:n=1:horizon=None:period=1000000"]


def test_campaign_plan_labels_keep_journals_resumable(tmp_path):
    """The same contract for the plain and DAQ campaign labels, read
    back from the plan header of the journal each run writes."""
    import json

    from repro.faults import ReferenceWorld, reference_cells, run_campaign

    labels = []
    for period in (None, ms(1)):
        journal = tmp_path / f"campaign-{period}.jsonl"
        run_campaign(ReferenceWorld, reference_cells()[:1],
                     horizon=ms(300), checkpoint=journal,
                     daq_period=period)
        with open(journal, encoding="utf-8") as handle:
            labels.append(json.loads(handle.readline())["label"])
    assert labels == ["campaign:horizon=300000000",
                      "campaign-daq:horizon=300000000:period=1000000"]


def test_campaign_with_daq_keeps_report_digest():
    from repro.faults import ReferenceWorld, reference_cells, run_campaign

    cells = reference_cells()[:2]
    plain = run_campaign(ReferenceWorld, cells, horizon=ms(300))
    with_daq = run_campaign(ReferenceWorld, cells, horizon=ms(300),
                            daq_period=ms(1))
    assert plain.digest() == with_daq.digest()
    assert with_daq.daq_sample_count > 0 and plain.daq_sample_count == 0
    parallel = run_campaign(ReferenceWorld, cells, horizon=ms(300),
                            daq_period=ms(1), jobs=2)
    assert parallel.measurement_digest() == with_daq.measurement_digest()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_meas_cli_registry(capsys):
    from repro.meas.cli import meas_command

    assert meas_command(["registry", "adas-fusion"]) == 0
    out = capsys.readouterr().out
    assert "registry digest: sha256:" in out
    assert "calib.chain.timeout" in out and "post-build" in out


def test_meas_cli_daq_with_mtf(tmp_path, capsys):
    from repro.meas.cli import meas_command

    path = str(tmp_path / "cli.mtf")
    assert meas_command(["daq", "adas-fusion", "--period-us", "1000",
                         "--horizon-ms", "20", "--mtf-out", path]) == 0
    out = capsys.readouterr().out
    assert "measurement digest: sha256:" in out
    assert meas_command(["mtf", path]) == 0
    assert "MTF store" in capsys.readouterr().out
    assert meas_command(
        ["mtf", path, "--signal", "daq.daq0:adas-fusion:sim.now",
         "--start", "0", "--end", "2000000"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_meas_cli_bad_inputs(tmp_path, capsys):
    from repro.meas.cli import meas_command

    assert meas_command(["registry", "/no/such/model.json"]) == 2
    text = tmp_path / "plain.txt"
    text.write_text("hello")
    assert meas_command(["mtf", str(text)]) == 2


def test_main_dispatches_meas(capsys):
    from repro.__main__ import main

    assert main(["repro", "meas", "registry", "adas-fusion"]) == 0
    assert "registry digest" in capsys.readouterr().out
    assert main(["repro", "bogus"]) == 2
    assert "'meas'" in capsys.readouterr().out


def test_main_verify_daq_requires_flag_pairing(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["repro", "verify", "--mtf-out", "/tmp/x.mtf"])
