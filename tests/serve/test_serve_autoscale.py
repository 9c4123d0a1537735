"""Elastic capacity in the serving tier: ticks, displacement, recovery."""

from __future__ import annotations

import json

import pytest

from repro.autoscale.guard import AutoscaleConfig
from repro.flowsim.policies import DrepSequential
from repro.serve.online import OnlineScheduler
from repro.serve.server import ServeConfig
from repro.serve.snapshot import restore_scheduler, snapshot_scheduler


def aconfig(**kw) -> AutoscaleConfig:
    base = dict(
        m_min=1,
        m_max=4,
        m_start=4,
        tick=5.0,
        up_watermark=20.0,
        down_watermark=8.0,
        cooldown_up=0.0,
        cooldown_down=0.0,
        requeue_delay=1.0,
    )
    base.update(kw)
    return AutoscaleConfig(**base)


def elastic_scheduler(**kw) -> OnlineScheduler:
    return OnlineScheduler(4, DrepSequential(), seed=21, autoscale=aconfig(**kw))


def burst(sched: OnlineScheduler, n: int = 6, work: float = 30.0) -> None:
    for _ in range(n):
        sched.submit(work=work)


class TestConstruction:
    def test_m_max_must_match_machine(self):
        with pytest.raises(ValueError, match="m_max"):
            OnlineScheduler(
                8, DrepSequential(), seed=0, autoscale=aconfig(m_max=4)
            )

    def test_starts_at_m_start(self):
        sched = elastic_scheduler(m_start=2)
        assert sched.m_effective == 2
        assert sched.autoscale is not None

    def test_plain_scheduler_has_no_autoscale(self):
        sched = OnlineScheduler(4, DrepSequential(), seed=0)
        assert sched.autoscale is None
        assert sched.m_effective == 4
        assert sched.autoscale_state_dict() is None


class TestTicking:
    def test_ticks_fire_at_exact_boundaries(self):
        sched = elastic_scheduler()
        burst(sched)
        # chunked advance must hit every multiple of tick exactly once
        for t in (3.0, 7.0, 12.5, 26.0):
            sched.advance_to(t)
        ticks = sched.stats()["autoscale"]["ticks"]
        assert ticks == 5  # t = 5, 10, 15, 20, 25

    def test_tick_schedule_independent_of_chunking(self):
        a = elastic_scheduler()
        b = elastic_scheduler()
        burst(a)
        burst(b)
        a.advance_to(40.0)
        for t in (1.0, 9.0, 17.3, 33.0, 40.0):
            b.advance_to(t)
        assert json.dumps(a.autoscale_state_dict(), default=str) == json.dumps(
            b.autoscale_state_dict(), default=str
        )

    def test_idle_system_scales_down(self):
        sched = elastic_scheduler()
        sched.advance_to(100.0)
        st = sched.stats()["autoscale"]
        assert st["m_current"] == 1
        assert st["scale_downs"] == 3

    def test_drain_keeps_ticking_to_completion(self):
        sched = elastic_scheduler(m_start=1)
        burst(sched, n=8)
        result = sched.drain()
        assert result.n_jobs == 8
        assert sched.stats()["autoscale"]["scale_ups"] >= 1

    def test_unreleased_future_work_is_invisible(self):
        sched = elastic_scheduler(m_start=1, up_watermark=10.0)
        # work stamped far in the future must not trigger scale-ups now
        for k in range(6):
            sched.submit(work=50.0, release=1000.0 + k)
        sched.advance_to(50.0)
        assert sched.stats()["autoscale"]["scale_ups"] == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_horizon_raises(self, bad):
        """An infinite horizon would fire ticks for ever."""
        sched = elastic_scheduler()
        burst(sched)
        sched.advance_to(12.0)
        ticks = sched.stats()["autoscale"]["ticks"]
        with pytest.raises(ValueError, match="clock"):
            sched.advance_to(bad)
        assert sched.now == 12.0
        assert sched.stats()["autoscale"]["ticks"] == ticks


class TestDisplacement:
    def scale_down_under_load(self):
        sched = elastic_scheduler(
            m_start=4, up_watermark=500.0, down_watermark=400.0
        )
        burst(sched, n=4, work=100.0)
        sched.advance_to(30.0)  # low signal → shed capacity mid-flight
        return sched

    def test_displaced_work_lands_in_requeue_log(self):
        sched = self.scale_down_under_load()
        st = sched.stats()["autoscale"]
        assert st["scale_downs"] >= 1
        assert st["displaced_work"] > 0
        assert st["requeues"] >= 1
        log = sched.stepper.requeue_log
        assert sum(r["redone_work"] for r in log) <= st["displaced_work"]

    def test_drain_closes_the_accounting(self):
        sched = self.scale_down_under_load()
        result = sched.drain()
        assert result.n_jobs == 4
        displaced = sched.stepper.displaced_work
        redone = sum(r["redone_work"] for r in sched.stepper.requeue_log)
        assert displaced == pytest.approx(redone)  # zero unaccounted

    def test_no_displace_config_parks_capacity_only(self):
        sched = elastic_scheduler(
            m_start=4,
            up_watermark=500.0,
            down_watermark=400.0,
            displace=False,
        )
        burst(sched, n=4, work=100.0)
        sched.advance_to(30.0)
        assert sched.stats()["autoscale"]["displaced_work"] == 0.0
        result = sched.drain()
        assert result.n_jobs == 4


class TestRecovery:
    def test_snapshot_round_trip_mid_burst(self):
        sched = elastic_scheduler(m_start=1)
        burst(sched)
        sched.advance_to(17.0)
        state = json.loads(json.dumps(snapshot_scheduler(sched)))
        restored = restore_scheduler(state)
        assert restored.m_effective == sched.m_effective
        assert json.dumps(
            restored.autoscale_state_dict(), default=str
        ) == json.dumps(sched.autoscale_state_dict(), default=str)

    def test_restored_scheduler_evolves_identically(self):
        sched = elastic_scheduler(m_start=1)
        burst(sched)
        sched.advance_to(17.0)
        restored = restore_scheduler(json.loads(json.dumps(snapshot_scheduler(sched))))
        for target in (sched, restored):
            target.submit(work=25.0)
            target.advance_to(60.0)
        assert json.dumps(sched.autoscale_state_dict(), default=str) == json.dumps(
            restored.autoscale_state_dict(), default=str
        )
        a = sched.drain()
        b = restored.drain()
        assert a.flow_times.tolist() == b.flow_times.tolist()
        assert sched.stats()["autoscale"] == restored.stats()["autoscale"]

    def test_journal_replay_reproduces_elastic_trajectory(self, tmp_path):
        """What a SIGKILL leaves behind — the journal — replays m(t) exactly."""
        from repro.serve.journal import RequestJournal, recover
        from repro.serve.server import ServeConfig

        config = ServeConfig(
            m=4,
            seed=21,
            autoscale=True,
            autoscale_m_min=1,
            autoscale_tick=5.0,
            autoscale_cooldown_up=0.0,
            autoscale_cooldown_down=0.0,
        )
        live = config.build_scheduler()
        entries = [
            {"op": "submit", "work": 30.0, "release": 0.0},
            {"op": "advance", "to": 12.0},
            {"op": "submit", "work": 30.0, "release": 12.0},
            {"op": "advance", "to": 31.0},
        ]
        with RequestJournal(tmp_path) as journal:
            for entry in entries:
                journal.append(entry)
                if entry["op"] == "submit":
                    live.advance_to(entry["release"])
                    live.submit(work=entry["work"], release=entry["release"])
                else:
                    live.advance_to(entry["to"])
        recovered, _, replayed = recover(
            tmp_path, build_empty=config.build_scheduler
        )
        assert replayed == len(entries)
        assert recovered.m_effective == live.m_effective
        assert json.dumps(
            recovered.autoscale_state_dict(), default=str
        ) == json.dumps(live.autoscale_state_dict(), default=str)
        a = live.drain().flow_times
        b = recovered.drain().flow_times
        assert a.tolist() == b.tolist()

    def test_journal_cuts_mid_displacement_recover_exactly(self, tmp_path):
        """SIGKILL after any request of a journaled elastic server that
        cuts a checkpoint every 3 entries while scale-downs displace
        running jobs: recovery must reproduce the controller, the
        requeue log and every drained flow time."""
        from repro.serve.journal import RequestJournal, apply_entry, recover
        from repro.serve.server import ServeConfig

        config = ServeConfig(
            m=4,
            seed=21,
            autoscale=True,
            autoscale_m_min=1,
            autoscale_tick=5.0,
            autoscale_up=500.0,
            autoscale_down=400.0,
            autoscale_cooldown_up=0.0,
            autoscale_cooldown_down=0.0,
            autoscale_requeue_delay=3.0,
        )
        entries, t = [], 0.0
        for k in range(8):
            entries += [
                {"op": "submit", "work": 30.0 + 10 * k, "release": t}
            ] * 4
            for _ in range(3):
                t += 3.5  # off the tick grid, so cuts land mid-requeue
                entries.append({"op": "advance", "to": t})

        def replay(sched, rest):
            for entry in rest:
                apply_entry(sched, entry)
            return sched

        reference = replay(config.build_scheduler(), entries).drain()
        live = config.build_scheduler()
        cuts_with_suspended = 0
        with RequestJournal(tmp_path, snapshot_every=3) as journal:
            for k, entry in enumerate(entries, 1):
                journal.append(entry)
                apply_entry(live, entry)
                if journal.maybe_snapshot(live):
                    snap = json.loads((tmp_path / "snapshot.json").read_text())
                    cuts_with_suspended += bool(
                        snap["state"]["engine"]["suspended"]
                    )
                recovered, seq, _ = recover(
                    tmp_path, build_empty=config.build_scheduler
                )
                assert seq == k
                assert json.dumps(
                    recovered.autoscale_state_dict(), default=str
                ) == json.dumps(live.autoscale_state_dict(), default=str)
                assert recovered.stepper.requeue_log == live.stepper.requeue_log
                drained = replay(recovered, entries[k:]).drain()
                assert drained.flow_times.tolist() == (
                    reference.flow_times.tolist()
                )
        assert live.stats()["autoscale"]["scale_downs"] >= 3
        assert len(live.stepper.requeue_log) >= 3
        assert cuts_with_suspended >= 3

    def test_pre_autoscale_snapshots_still_restore(self):
        plain = OnlineScheduler(4, DrepSequential(), seed=21)
        burst(plain)
        plain.advance_to(10.0)
        state = json.loads(json.dumps(snapshot_scheduler(plain)))
        state.pop("autoscale", None)  # a snapshot from before this feature
        restored = restore_scheduler(state)
        assert restored.autoscale is None
        assert restored.drain().n_jobs == 6


class TestServeConfig:
    def test_autoscale_off_by_default(self):
        assert ServeConfig(m=4).autoscale_config() is None

    def test_autoscale_config_mirrors_flags(self):
        cfg = ServeConfig(
            m=4,
            autoscale=True,
            autoscale_m_min=2,
            autoscale_tick=3.0,
            autoscale_up=50.0,
            autoscale_down=10.0,
            autoscale_displace=False,
        ).autoscale_config()
        assert cfg.m_min == 2 and cfg.m_max == 4
        assert cfg.m_start == 4  # cold start at full capacity
        assert cfg.tick == 3.0
        assert (cfg.up_watermark, cfg.down_watermark) == (50.0, 10.0)
        assert cfg.displace is False

    def test_build_scheduler_attaches_controller(self):
        sched = ServeConfig(m=4, autoscale=True).build_scheduler()
        assert sched.autoscale is not None
        assert sched.m_effective == 4
