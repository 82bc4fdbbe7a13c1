"""Mixing of the effective equation: laws started from different states merge.

The dissipative drift plus non-degenerate noise make the effective equation
mixing; the empirical profile tracks the dual-Lipschitz distance between the
laws of two ensembles started at different initial states.  Starting from
the same state with the same seed reproduces identical ensembles, so the
profile is exactly zero there, a useful self-test of the seed lineage.
"""

import numpy as np

from stochavg import acceptance_system, mixing_profile

spec = acceptance_system()
v1 = np.array([2.0 + 0.0j, 0.0 + 0.0j])
v2 = np.array([0.0 + 0.0j, 2.0 + 0.0j])
times = [0.5, 1.0, 2.0, 4.0, 8.0]

print(f"initial states: v1 = {v1}, v2 = {v2}")
rows = mixing_profile(spec, "full", v1, v2, T=8.0, dtau=2e-3, n_paths=1500,
                      seed=3, times=times)
print(f"{'tau':>6} {'distance':>10} {'noise floor':>12}")
for r in rows:
    print(f"{r.time:>6g} {r.estimate:>10.4f} {r.noise_floor:>12.4f}")

print("\nsame state, same seed: the two ensembles coincide and the distance")
print("is identically zero at every requested time:")
rows = mixing_profile(spec, "full", v1, v1, T=1.0, dtau=1e-2, n_paths=200,
                      seed=3, times=[0.5, 1.0], bootstrap=0)
print(f"  distances: {[r.estimate for r in rows]}")
