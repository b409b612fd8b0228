#!/usr/bin/env python3
"""Certifying a neural controller for a critical deployment.

The paper's motivation: neural networks now fly aircraft and drive
cars, where "stopping a neural network and recovering its failures
through a new learning phase is not an option".  This example plays
the certification workflow end to end for a toy pitch-control surface:

* the "plant response" target is a smooth 3-D function (angle of
  attack, airspeed, elevator command) -> normalised response;
* the controller must stay within eps of the plant response *even
  while neurons die mid-flight* — no retraining allowed;
* we compare three deployment candidates: the network as trained, a
  weight-capped retrain (the Section V-C weight trade-off), and an
  Fep-regularised retrain (the paper's future-work learning scheme) —
  and show what each buys in certified tolerance;
* finally we run an in-flight failure storm (progressive crashes)
  through the fault injector and watch the guarantee hold until the
  certified budget is exhausted.

Run:  python examples/flight_controller_certification.py
"""

import numpy as np

from repro import build_mlp, certify
from repro.core import network_fep
from repro.faults import FaultInjector, worst_case_crash_scenario
from repro.training import (
    FepRegularizer,
    MaxNormConstraint,
    Trainer,
    TargetFunction,
    grid_inputs,
    sample_dataset,
    sup_error,
)


def plant_response() -> TargetFunction:
    """A smooth aerodynamic-style response surface on [0,1]^3."""

    def fn(x):
        aoa, speed, cmd = x[:, 0], x[:, 1], x[:, 2]
        lift = np.sin(np.pi * aoa) * (0.4 + 0.6 * speed)
        control = 0.3 * np.tanh(3.0 * (cmd - 0.5))
        return np.clip(0.5 * lift + control + 0.35, 0.0, 1.0)

    return TargetFunction("plant_response", 3, fn)


def train_candidate(name, regularizers, seed=0):
    target = plant_response()
    net = build_mlp(
        3,
        [32, 24],
        activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.3},
        output_scale=0.3,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    X, y = sample_dataset(target, 2048, rng=rng)
    Trainer(optimizer="adam", regularizers=regularizers).train(
        net, X, y, epochs=120, batch_size=64, rng=rng
    )
    grid = grid_inputs(3, 12)
    eps_prime = sup_error(net, target, grid)
    return name, net, eps_prime, grid


def main() -> None:
    epsilon = 0.25  # the control-loop accuracy the airframe needs
    # Fep-aware training: only synapse stages >= 2 enter the bound, so the
    # caps leave the input features (stage 1) free.
    candidates = [
        train_candidate("plain", []),
        train_candidate(
            "stage>=2 capped (|w|<=0.06)",
            [MaxNormConstraint(0.06, stages=(2, 3))],
        ),
        train_candidate(
            "Fep-regularised (target f=(2,2))",
            [MaxNormConstraint(0.2, stages=(2, 3)), FepRegularizer((2, 2), lam=0.01)],
        ),
    ]

    print(f"required in-flight accuracy: eps = {epsilon}")
    print(f"{'candidate':38s} {'eps_prime':>9s} {'budget':>7s} "
          f"{'max crashes/layer':>18s} {'total':>6s}")
    best = None
    for name, net, eps_prime, grid in candidates:
        if eps_prime >= epsilon:
            print(f"{name:38s} {eps_prime:9.4f}   -- fails the accuracy gate --")
            continue
        cert = certify(net, epsilon, eps_prime, mode="crash")
        total = sum(cert.maximal_distribution)
        print(
            f"{name:38s} {eps_prime:9.4f} {cert.budget:7.4f} "
            f"{str(cert.per_layer_max):>18s} {total:6d}"
        )
        if best is None or total > best[3]:
            best = (name, net, cert, total, grid)

    assert best is not None, "no candidate met the accuracy gate"
    name, net, cert, total, grid = best
    print(f"\ndeploying: {name} (tolerates {cert.maximal_distribution} crashes)")

    # ---- in-flight failure storm -----------------------------------------
    print("\nfailure storm (worst-case victims, one more crash per step):")
    injector = FaultInjector(net, capacity=net.output_bound)
    probe = grid[:: max(1, len(grid) // 64)]
    max_dist = cert.maximal_distribution
    step_dists = []
    for k in range(1, total + 3):  # go two steps past the certificate
        remaining = k
        dist = [0] * net.depth
        for l in range(net.depth):
            take = min(remaining, max_dist[l] + (1 if k > total else 0))
            take = min(take, net.layer_sizes[l] - 1)
            dist[l] = take
            remaining -= take
            if remaining <= 0:
                break
        step_dists.append(tuple(dist))

    for dist in step_dists:
        scenario = worst_case_crash_scenario(net, dist)
        err = injector.output_error(probe, scenario)
        fep = network_fep(net, dist, mode="crash")
        certified = bool(cert.tolerates(dist))
        status = "CERTIFIED" if certified else "beyond certificate"
        print(
            f"  crashes {dist}: observed {err:.4f}, Fep {fep:.4f}, "
            f"budget {cert.budget:.4f}  [{status}]"
        )
        if certified:
            assert err <= cert.budget + 1e-9

    print("OK: certified tolerance held exactly as far as Theorem 3 promised.")


if __name__ == "__main__":
    main()
