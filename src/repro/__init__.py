"""GZKP reproduction - a GPU-accelerated zero-knowledge proof system
(Ma et al., ASPLOS 2023), rebuilt as a Python library.

Packages:

* :mod:`repro.ff` - finite fields (int, 64-bit Montgomery, base-2^52 DFP).
* :mod:`repro.backend` - pluggable batch compute engines
  (runtime-compiled C kernels, the default, and pure-Python, which
  ``numpy`` resolves to when the kernels do not load;
  ``REPRO_BACKEND=numpy|python``).
* :mod:`repro.curves` - elliptic-curve groups and pairings.
* :mod:`repro.gpusim` - GPU/CPU execution model and cost accounting.
* :mod:`repro.ntt` - POLY stage: reference, baseline-GPU and GZKP NTTs.
* :mod:`repro.msm` - MSM stage: naive, Pippenger, Straus, GZKP.
* :mod:`repro.snark` - R1CS, QAP, Groth16 setup/prove/verify.
* :mod:`repro.circuits` - workload circuit generators (Table 2/3).
* :mod:`repro.systems` - end-to-end system models (libsnark, bellman,
  bellperson, MINA, GZKP).
* :mod:`repro.bench` - regenerators for every table and figure.
"""

__version__ = "1.0.0"
