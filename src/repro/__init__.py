"""ViTCoD reproduction: sparse-ViT algorithm/accelerator co-design.

Reproduces *ViTCoD: Vision Transformer Acceleration via Dedicated Algorithm
and Accelerator Co-Design* (HPCA 2023) end to end:

* :mod:`repro.nn` — numpy autograd + NN substrate (the PyTorch substitute);
* :mod:`repro.models` — DeiT / LeViT / Strided Transformer zoo;
* :mod:`repro.sparsity` — the split-and-conquer algorithm (Algorithm 1);
* :mod:`repro.autoencoder` — the learnable Q/K auto-encoder and the unified
  ViTCoD pipeline (Fig. 10);
* :mod:`repro.formats` — the CSC index format the functional executor walks;
* :mod:`repro.sim` — the unified simulation-engine layer (protocols plus
  the shared whole-model accumulation every simulator implements);
* :mod:`repro.hw` — the two-pronged ViTCoD accelerator simulator (§V);
* :mod:`repro.baselines` — CPU/EdgeGPU/GPU platforms, SpAtten, Sanger;
* :mod:`repro.compiler` — the algorithm-hardware interface (Fig. 14) plus a
  functional executor for numerical validation;
* :mod:`repro.roofline` — the Fig. 3 roofline model;
* :mod:`repro.harness` — one experiment runner per paper table/figure.

Quickstart::

    from repro.models import pretrained, get_config
    from repro.autoencoder import run_vitcod_pipeline
    from repro.hw import ViTCoDAccelerator, model_workload

    result = run_vitcod_pipeline(pretrained("deit-tiny"), target_sparsity=0.9)
    workload = model_workload(get_config("deit-base"), sparsity=0.9)
    report = ViTCoDAccelerator().simulate_attention(workload)
"""

__version__ = "1.0.0"

from . import nn
from . import models
from . import sparsity
from . import autoencoder
from . import formats
from . import sim
from . import hw
from . import baselines
from . import compiler
from . import roofline
from . import obs
from . import harness
from . import viz

__all__ = [
    "nn",
    "models",
    "sparsity",
    "autoencoder",
    "formats",
    "sim",
    "hw",
    "baselines",
    "compiler",
    "roofline",
    "obs",
    "harness",
    "viz",
    "__version__",
]
