"""Workloads: assembly kernels + golden models for the paper's use cases.

* :mod:`repro.workloads.image_pipeline` — resize / grayscale filter /
  normalization (image classification use case, Fig 15a),
* :mod:`repro.workloads.motion_features` — mean / histogram / MAV feature
  extraction (motion detection use case, Fig 15b),
* :mod:`repro.workloads.bnn_kernels` — software BNN inference on the CPU
  (Table 1's standalone-CPU baseline),
* :mod:`repro.workloads.dhrystone` — Dhrystone-like benchmark (Table 2),
* :mod:`repro.workloads.mibench` — MiBench-style kernels (Fig 11a),
* :mod:`repro.workloads.layout` — shared data-memory layout.
"""

from repro.workloads import (  # noqa: F401
    bnn_kernels,
    dhrystone,
    image_pipeline,
    layout,
    mibench,
    motion_features,
)

__all__ = [
    "bnn_kernels",
    "dhrystone",
    "image_pipeline",
    "layout",
    "mibench",
    "motion_features",
]
