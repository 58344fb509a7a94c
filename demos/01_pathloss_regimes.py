"""Walk through the large-scale path loss picture of a land-to-ship link.

We sweep a 5.8 GHz link with a 25 m shore antenna and a 4 m ship antenna
across distance, compare the free-space, two-ray, and sea-state-aware MTR
models, and mark the three geometric thresholds that partition the
propagation regimes.

Run:  python3 demos/01_pathloss_regimes.py
"""

import numpy as np

from mariner_chan.geometry import LinkGeometry, thresholds
from mariner_chan.pathloss import (
    SeaStateParams,
    fspl,
    mtr_path_loss,
    two_ray_simplified,
)

geom = LinkGeometry(f_c=5.8e9, h_t=25.0, h_r=4.0, d=3000.0)
sea = SeaStateParams(v_w=7.7)

th = thresholds(geom)
print("Regime thresholds for the reference link")
print(f"  last interference maximum : {th.d_break / 1e3:8.2f} km")
print(f"  60% Fresnel clearance     : {th.d_06f / 1e3:8.2f} km")
print(f"  geometric visibility      : {th.d_los_vision / 1e3:8.2f} km")
print()

print(f"{'d [km]':>8} {'FSPL':>8} {'two-ray':>9} {'MTR (7.7 m/s)':>14}")
d = np.geomspace(500, 25_000, 16)
# each model evaluates the whole distance axis in one call
rows = np.column_stack([fspl(geom.f_c, d), two_ray_simplified(geom, d),
                        mtr_path_loss(geom, sea, d=d)])
for dk, row in zip(d, rows):
    print(f"{dk / 1e3:8.2f} {row[0]:8.2f} {row[1]:9.2f} {row[2]:14.2f}")

print()
print("Within the interference region the two-ray and MTR curves oscillate")
print("around free space; beyond the last maximum they fall away together,")
print("with the MTR model additionally discounting the reflected ray for")
print("spherical divergence, wave shadowing, and surface roughness.")
