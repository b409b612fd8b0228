"""``repro.run``: one dispatcher lowering every spec onto the engines.

The spec layer (:mod:`repro.specs.model`) is pure data; this module is
the single place where data becomes execution:

* :class:`~repro.specs.model.CampaignSpec` compiles its
  ``FaultSpec``/``SamplerSpec`` pair into the mask-sampler family and
  streams scenarios through
  :func:`~repro.faults.masks.sampled_campaign_errors` (or the bulk
  combination compiler for exhaustive sweeps) — the same engines the
  deprecated direct-kwargs entry points used;
* :class:`~repro.specs.model.SurvivalSpec` evaluates the certified
  Theorem-3 bound or the Monte-Carlo injection estimate;
* :class:`~repro.specs.model.ChaosSpec` builds its
  process/detector/policy/traffic objects and hands them to the chaos
  orchestrator.

Adding a new workload to the system is therefore one spec subclass
plus one lowering rule here — no CLI fork, no new keyword entry point.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .model import (
    CampaignSpec,
    ChaosSpec,
    DetectorSpec,
    FaultSpec,
    PolicySpec,
    SamplerSpec,
    Spec,
    SpecError,
    SurvivalSpec,
    load_spec,
    spec_from_dict,
)

__all__ = ["run", "build_sampler", "build_detector", "build_policy"]


def _probe_batch(spec, network) -> np.ndarray:
    """The random probe inputs a spec evaluates over.

    Drawn from ``probe_seed`` (default: the campaign ``seed``), exactly
    as the CLI has always drawn them — so a spec replays the argparse
    path bit for bit.
    """
    seed = spec.probe_seed if spec.probe_seed is not None else spec.seed
    rng = np.random.default_rng(seed)
    return rng.random((max(1, spec.batch), network.input_dim))


def build_sampler(
    sampler: SamplerSpec, fault: Optional[FaultSpec], network
):
    """Lower a sampler/fault spec pair onto the mask-sampler family.

    ``fault`` is the campaign-level default; a sampler carrying its own
    ``fault`` (mixed components always do) overrides it.  Neuron
    faults route to the neuron samplers, synapse faults to the sparse
    synapse samplers — the same dispatch ``_monte_carlo_campaign`` and
    ``monte_carlo_survival`` perform.
    """
    from ..faults.masks import (
        BernoulliSampler,
        FixedDistributionSampler,
        FixedSynapseDistributionSampler,
        MixedFaultSampler,
        SynapseBernoulliSampler,
    )

    if sampler.kind == "mixed":
        return MixedFaultSampler(
            [
                build_sampler(comp, comp.fault, network)
                for comp in sampler.components
            ]
        )
    fault_spec = sampler.fault if sampler.fault is not None else fault
    fault_spec = fault_spec if fault_spec is not None else FaultSpec()
    model = fault_spec.to_fault_model()
    if sampler.kind == "fixed":
        if fault_spec.is_synapse:
            return FixedSynapseDistributionSampler(
                network, sampler.distribution, fault=model
            )
        return FixedDistributionSampler(
            network, sampler.distribution, fault=model
        )
    if sampler.kind == "bernoulli":
        if fault_spec.is_synapse:
            return SynapseBernoulliSampler(
                network, sampler.p_fail, fault=model
            )
        return BernoulliSampler(network, sampler.p_fail, fault=model)
    raise SpecError(
        f"sampler kind {sampler.kind!r} has no direct lowering "
        "(exhaustive sweeps are lowered at the campaign level)"
    )


def build_detector(spec: DetectorSpec, chaos: ChaosSpec, network):
    """Lower a detector spec in the context of its chaos campaign.

    Unset thresholds resolve against the epsilon budget; the certified
    alarm borrows the first process's rate when ``failure_rate`` is
    unset (the CLI's ``--rate`` convention).
    """
    from ..chaos.detectors import (
        CertifiedAlarmDetector,
        CUSUMDetector,
        ThresholdDetector,
    )

    budget = chaos.epsilon - chaos.epsilon_prime
    if spec.kind == "threshold":
        return ThresholdDetector(
            spec.threshold if spec.threshold is not None else budget
        )
    if spec.kind == "cusum":
        return CUSUMDetector(
            spec.drift if spec.drift is not None else budget / 2.0,
            spec.threshold if spec.threshold is not None else 2.0 * budget,
        )
    rate = (
        spec.failure_rate
        if spec.failure_rate is not None
        else chaos.processes[0].rate
    )
    return CertifiedAlarmDetector(
        network,
        rate,
        chaos.epsilon,
        chaos.epsilon_prime,
        p_threshold=spec.p_threshold,
        dt=spec.dt,
        capacity=chaos.capacity,
        mode=spec.mode,
    )


def build_policy(spec: PolicySpec, chaos: ChaosSpec, network):
    """Lower a policy spec; ``tolerated=None`` derives the boosted
    rejuvenation's straggler budget from the certificate."""
    from ..chaos.policies import (
        DetectorRepairPolicy,
        NoRepairPolicy,
        PeriodicRejuvenationPolicy,
        SpareActivationPolicy,
    )

    if spec.kind == "rejuvenate":
        tolerated = spec.tolerated
        if tolerated is None:
            from ..core.tolerance import greedy_max_total_failures

            tolerated = greedy_max_total_failures(
                network, chaos.epsilon, chaos.epsilon_prime
            )
        return PeriodicRejuvenationPolicy(
            spec.period,
            tolerated,
            straggler_fraction=spec.straggler_fraction,
            straggler_scale=spec.straggler_scale,
        )
    if spec.kind == "repair":
        return DetectorRepairPolicy(
            latency=spec.latency,
            downtime=spec.downtime,
            detector=spec.detector,
        )
    if spec.kind == "spare":
        return SpareActivationPolicy(
            spec.spares,
            swap_latency=spec.swap_latency,
            detector=spec.detector,
        )
    return NoRepairPolicy()


def _run_campaign(spec: CampaignSpec, engine, workers, profile, obs=None):
    from ..faults.campaign import CampaignResult, exhaustive_crash_campaign
    from ..faults.injector import FaultInjector
    from ..faults.masks import sampled_campaign_errors
    from ..obs.recorder import span_if

    if engine is not None:
        # Engine reuse: the engine owns the network/injector instance
        # (a freshly-resolved copy would fail its identity guard); the
        # spec must still describe the same capacity and probe batch —
        # sampled_campaign_errors verifies the latter bit for bit.
        network = engine.network
        injector = engine.injector
        if (
            spec.capacity is not None
            and engine.capacity != float(spec.capacity)
        ):
            raise SpecError(
                f"engine capacity {engine.capacity} != spec capacity "
                f"{spec.capacity}"
            )
    else:
        with span_if(obs, "network-load"):
            network = spec.network.resolve()
        capacity = (
            spec.capacity
            if spec.capacity is not None
            else network.output_bound
        )
        injector = FaultInjector(network, capacity=capacity)
    x = _probe_batch(spec, network)
    n_workers = workers if workers is not None else spec.engine.workers
    chunk = spec.engine.chunk_size if spec.engine.chunk_size else 1024

    owned_engine = None
    if engine is None and spec.engine.backend != "numpy":
        # The backend seam: a non-default backend builds its engine
        # through the registry; the campaign runners then treat it
        # exactly like a caller-supplied engine (in-process — the
        # threaded backend owns its own parallelism, so the process
        # fan-out stays off).
        from ..backends import build_engine

        engine = owned_engine = build_engine(
            spec.engine.backend,
            injector,
            x,
            chunk_size=chunk,
            reduction=spec.engine.reduction,
            dtype=spec.engine.dtype,
            workers=n_workers,
        )
        n_workers = 0
        if obs is not None and hasattr(owned_engine, "obs"):
            owned_engine.obs = obs
    try:
        if spec.sampler.kind == "exhaustive":
            return exhaustive_crash_campaign(
                injector,
                x,
                spec.sampler.n_fail,
                chunk_size=chunk,
                reduction=spec.engine.reduction,
                n_workers=n_workers,
                dtype=spec.engine.dtype,
                engine=engine,
                profile=profile,
                obs=obs,
            )
        sampler = build_sampler(spec.sampler, spec.fault, network)
        stopping = spec.effective_stopping
        if stopping is not None:
            threshold = (
                stopping.threshold
                if stopping.threshold is not None
                else spec.threshold
            )
            if stopping.stratify:
                from ..faults.adaptive import stratified_violation_estimate

                if n_workers and n_workers > 1:
                    raise SpecError(
                        "stratified stopping runs in-process (per-shell "
                        "engine reuse); drop the workers fan-out"
                    )
                fault_spec = (
                    spec.sampler.fault
                    if spec.sampler.fault is not None
                    else spec.fault
                )
                report = stratified_violation_estimate(
                    injector,
                    x,
                    spec.sampler.p_fail,
                    spec.n_scenarios,
                    threshold=threshold,
                    fault=(
                        fault_spec.to_fault_model()
                        if fault_spec is not None
                        else None
                    ),
                    allocation=stopping.allocation,
                    pilot=stopping.pilot,
                    delta=stopping.delta,
                    # The injector clips every faulty emission to its
                    # capacity, so the Fep certificate at exactly that
                    # capacity prunes shells soundly for the whole
                    # neuron-fault taxonomy.
                    prune_mode="byzantine",
                    seed=spec.seed,
                    chunk_size=chunk,
                    reduction=spec.engine.reduction,
                    dtype=spec.engine.dtype,
                    engine=engine,
                    profile=profile,
                    obs=obs,
                )
                return CampaignResult(
                    np.asarray([]), [], spec.engine.reduction, report
                )
            from ..faults.adaptive import adaptive_campaign_errors

            errors, report = adaptive_campaign_errors(
                injector,
                x,
                sampler,
                spec.n_scenarios,
                threshold=threshold,
                method=stopping.method,
                target_ci=stopping.target_ci,
                delta=stopping.delta,
                min_scenarios=stopping.min_scenarios,
                seed=spec.seed,
                chunk_size=chunk,
                reduction=spec.engine.reduction,
                dtype=spec.engine.dtype,
                n_workers=n_workers,
                engine=engine,
                profile=profile,
                obs=obs,
            )
            return CampaignResult(
                errors, [], spec.engine.reduction, report
            )
        errors = sampled_campaign_errors(
            injector,
            x,
            sampler,
            spec.n_scenarios,
            seed=spec.seed,
            chunk_size=chunk,
            reduction=spec.engine.reduction,
            dtype=spec.engine.dtype,
            n_workers=n_workers,
            engine=engine,
            profile=profile,
            obs=obs,
        )
        return CampaignResult(errors, [], spec.engine.reduction)
    finally:
        if owned_engine is not None and hasattr(owned_engine, "close"):
            owned_engine.close()


def _run_survival(spec: SurvivalSpec, engine, workers, profile=None, obs=None):
    from ..faults.reliability import (
        certified_survival_probability,
        monte_carlo_survival,
    )
    from ..obs.recorder import span_if

    if workers is not None and workers > 1:
        # monte_carlo_survival has no pool fan-out; silently running
        # serial would misreport what the caller asked for.
        raise SpecError(
            "workers fan-out is not supported for survival specs (the "
            "certified bound is exact and the Monte-Carlo estimate "
            "runs in-process)"
        )
    with span_if(obs, "network-load"):
        network = spec.network.resolve()
    if spec.method == "certified":
        if engine is not None:
            raise SpecError(
                "engine= reuse only applies to sampled workloads, not "
                "the certified bound"
            )
        # The certified bound is a closed-form count-grid evaluation —
        # no engine runs, so a profile stays at zero; the span still
        # times it.
        with span_if(obs, "certified-bound"):
            return certified_survival_probability(
                network,
                spec.p_fail,
                spec.epsilon,
                spec.epsilon_prime,
                mode=spec.mode,
                capacity=spec.capacity,
            )
    x = _probe_batch(spec, network)
    fault = spec.fault.to_fault_model() if spec.fault is not None else None
    return monte_carlo_survival(
        network,
        spec.p_fail,
        spec.epsilon,
        spec.epsilon_prime,
        x,
        fault=fault,
        capacity=spec.capacity,
        n_trials=spec.n_trials,
        seed=spec.seed,
        engine=engine,
        stopping=spec.stopping,
        profile=profile,
        obs=obs,
    )


def _run_chaos(spec: ChaosSpec, engine, workers, profile=None, obs=None):
    from ..chaos.campaign import _run_chaos_campaign
    from ..obs.recorder import span_if

    if engine is not None:
        raise SpecError(
            "engine= reuse only applies to static campaign specs; the "
            "chaos orchestrator owns its engine per replica block"
        )
    if spec.engine.backend != "numpy":
        raise SpecError(
            "engine backends only route static campaign specs; the chaos "
            "orchestrator owns its engines per replica block (got "
            f"backend={spec.engine.backend!r})"
        )
    with span_if(obs, "network-load"):
        network = spec.network.resolve()
    x = _probe_batch(spec, network)
    processes = [p.build() for p in spec.processes]
    detectors = [build_detector(d, spec, network) for d in spec.detectors]
    policy = build_policy(spec.policy, spec, network)
    traffic = spec.traffic.build()
    n_workers = workers if workers is not None else spec.engine.workers
    return _run_chaos_campaign(
        network,
        x,
        processes,
        traffic=traffic,
        detectors=detectors,
        policy=policy,
        epochs=spec.epochs,
        n_replicas=spec.replicas,
        epsilon=spec.epsilon,
        epsilon_prime=spec.epsilon_prime,
        capacity=spec.capacity,
        seed=spec.seed,
        epochs_chunk=spec.epochs_chunk,
        chunk_size=spec.engine.chunk_size,
        dtype=spec.engine.dtype,
        n_workers=n_workers,
        keep_errors=spec.keep_errors,
        telemetry=spec.telemetry,
        spec_payload=spec.to_dict(),
        profile=profile,
        obs=obs,
    )


def run(
    spec: "Spec | Mapping | str | Path",
    *,
    engine=None,
    workers: Optional[int] = None,
    profile=None,
    obs=None,
):
    """Execute any run spec on the engines; THE entry point.

    ``spec`` may be a spec object, a ``to_dict`` payload, or a path to
    a JSON spec file.  Returns what the workload naturally produces:

    * :class:`CampaignSpec` -> :class:`~repro.faults.campaign.CampaignResult`
    * :class:`SurvivalSpec` -> ``float`` (certified) or
      :class:`~repro.faults.reliability.ReliabilityEstimate` (monte_carlo)
    * :class:`ChaosSpec`    -> :class:`~repro.chaos.campaign.ChaosReport`

    Campaign specs route through the engine backend seam: a spec whose
    ``engine.backend`` is not ``"numpy"`` builds its engine via the
    :mod:`repro.backends` registry.  ``engine`` optionally reuses a
    prebuilt engine (any backend) across sampled campaign/survival
    specs sharing a network and probe batch (a survival curve over a
    p-grid pays weight casts once) — it takes precedence over the
    spec's ``backend``.  ``workers`` overrides the spec's
    ``engine.workers`` without rewriting the spec.

    ``profile`` (a :class:`~repro.profiling.PhaseProfile`) accumulates
    per-phase wall time for any spec kind, serial or fan-out — the
    CLI's ``--profile`` flag.  ``obs`` (a
    :class:`~repro.obs.RunObserver`) records the run's span trace and
    metrics; observation never touches a random stream, so results are
    bitwise identical with it on or off.  When both are given the
    observer publishes the caller's profile; when only ``obs`` is
    given its embedded profile is used.  A spec whose ``obs`` field is
    enabled with a ``record`` path self-observes: the dispatcher
    builds an observer and persists the run record there.
    """
    if isinstance(spec, (str, Path)):
        spec = load_spec(spec)
    elif isinstance(spec, Mapping):
        spec = spec_from_dict(spec)
    if workers is not None and workers < 0:
        raise SpecError(f"workers must be >= 0, got {workers}")

    owned_obs = None
    obs_spec = getattr(spec, "obs", None)
    if obs is None and obs_spec is not None and obs_spec.enabled \
            and obs_spec.record:
        from ..obs import RunObserver

        obs = owned_obs = RunObserver(events=obs_spec.events)
    if obs is not None and profile is None:
        profile = obs.profile

    def dispatch():
        if isinstance(spec, CampaignSpec):
            return _run_campaign(spec, engine, workers, profile, obs)
        if isinstance(spec, SurvivalSpec):
            return _run_survival(spec, engine, workers, profile, obs)
        if isinstance(spec, ChaosSpec):
            return _run_chaos(spec, engine, workers, profile, obs)
        raise SpecError(
            f"{type(spec).__name__} is not a runnable spec (expected "
            "CampaignSpec, SurvivalSpec or ChaosSpec)"
        )

    if obs is None:
        return dispatch()
    eff_workers = workers
    if eff_workers is None:
        eff_workers = getattr(getattr(spec, "engine", None), "workers", 0)
    with obs.span(
        "run", kind=spec.spec_tag, spec=spec.content_hash(),
        workers=eff_workers,
    ):
        result = dispatch()
    obs.finalize(profile)
    if owned_obs is not None:
        from ..obs import save_run_record

        save_run_record(obs.record(spec.to_dict()), obs_spec.record)
    return result
