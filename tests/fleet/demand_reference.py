"""Reference oracles for demand synthesis: the historical per-burst
loops, kept verbatim so the vectorized ``DemandModel.generate`` and its
batched profile builder can be checked ``==`` against them (same bytes,
same RNG position afterwards)."""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.fleet.demand import DemandModel, ServerDemand
from repro.workload.region import RackWorkload


def burst_profile_reference(model: DemandModel, volume, intensity, overshoot) -> np.ndarray:
    """The historical bucket-by-bucket profile loop."""
    body_rate = intensity * model.drain
    rates = []
    remaining = volume
    bucket = 0
    while remaining > 0:
        if bucket < model.overshoot_buckets:
            decay = 0.5**bucket
            rate = body_rate * (1.0 + (overshoot - 1.0) * decay)
        else:
            rate = body_rate
        take = min(remaining, rate)
        rates.append(take)
        remaining -= take
        bucket += 1
        if bucket > 10_000:
            raise SimulationError("burst profile failed to terminate")
    return np.array(rates)


def generate_reference(
    model: DemandModel,
    workload: RackWorkload,
    hour: int,
    buckets: int,
    rng: np.random.Generator,
) -> ServerDemand:
    """The historical ``DemandModel.generate``: four scalar draws and one
    profile per burst, added column by column."""
    if buckets <= 0:
        raise SimulationError("bucket count must be positive")
    placement = workload.placement
    servers = placement.servers

    demand = np.zeros((buckets, servers))
    connections = np.zeros((buckets, servers))
    persistence = np.zeros(servers)
    initial_m = np.ones(servers)
    initial_alpha = np.zeros(servers)

    task_phases: dict[str, np.ndarray] = {}
    for task in sorted(set(placement.tasks)):
        wave_count = rng.poisson(max(1.0, buckets * model.step * 8.0))
        task_phases[task] = rng.integers(0, buckets, size=max(wave_count, 1))
    rack_wave_count = rng.poisson(max(1.0, buckets * model.step * 5.0))
    rack_phase = rng.integers(0, buckets, size=max(rack_wave_count, 1))

    rack_load = float(rng.lognormal(mean=-0.1, sigma=0.45))

    for index in range(servers):
        spec = placement.services[index]
        task = placement.tasks[index]
        load = (
            workload.diurnal.scaled(spec.diurnal_sensitivity).at_hour(hour)
            * workload.load_scale
            * rack_load
        )
        persistence[index] = spec.sender_persistence
        persistent_senders = spec.sender_persistence >= 1.0
        if persistent_senders:
            initial_m[index] = model.adapted_multiplier
            initial_alpha[index] = 0.5

        base = spec.baseline_utilization * load * model.drain
        if base > 0:
            jitter = rng.lognormal(mean=-0.06, sigma=0.35, size=buckets)
            demand[:, index] += base * jitter
        connections_base = spec.base_connections
        connections[:, index] += np.maximum(
            rng.normal(connections_base, connections_base * 0.2, size=buckets), 0.0
        )

        p_active = min(0.95, spec.active_probability * load**0.25)
        if rng.random() >= p_active:
            continue

        rate_multiplier = float(
            min(max(rng.lognormal(mean=-0.35, sigma=model.rate_tail_sigma), 0.05), 4.0)
        )
        starts = model._draw_burst_starts(
            spec, buckets, load, rng, task_phases.get(task), rack_phase,
            rate_multiplier,
        )
        if persistent_senders:
            starts = model._serialize_starts(starts, spec, buckets)
        for start in starts:
            volume = rng.lognormal(
                spec.burst_volume_log_mu, spec.burst_volume_log_sigma
            )
            intensity = float(
                min(
                    max(
                        rng.normal(
                            spec.burst_intensity_mean, spec.burst_intensity_std
                        ),
                        0.55,
                    ),
                    1.25,
                )
            )
            fanin = max(
                1.0, spec.burst_connections * rng.lognormal(mean=0.0, sigma=0.35)
            )
            scale = model.overshoot_scale * (0.15 if persistent_senders else 1.0)
            overshoot = 1.0 + scale * (fanin / 40.0) * rng.lognormal(
                mean=0.0, sigma=0.5
            )
            profile = burst_profile_reference(model, volume, intensity, overshoot)
            end = min(int(start) + len(profile), buckets)
            span = end - int(start)
            if span <= 0:
                continue
            demand[int(start) : end, index] += profile[:span]
            connections[int(start) : end, index] = np.maximum(
                connections[int(start) : end, index], fanin
            )

    return ServerDemand(
        demand=demand,
        connections=connections,
        persistence=persistence,
        initial_multiplier=initial_m,
        initial_alpha=initial_alpha,
    )
