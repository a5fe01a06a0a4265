"""repro: reproduction of WSCCL (ICDE 2022).

Weakly-supervised Temporal Path Representation Learning with Contrastive
Curriculum Learning, built entirely on numpy-based substrates (see the
README for the layer inventory and its "Baselines" section for the
substitutions made in the compared methods).

Quickstart
----------
>>> from repro.datasets import aalborg, DatasetScale
>>> from repro.core import WSCCL, WSCCLConfig
>>> city = aalborg(scale=DatasetScale.tiny())
>>> model = WSCCL(city.network, config=WSCCLConfig.test_scale())
>>> model.fit(city.unlabeled)                                    # doctest: +SKIP
>>> tprs = model.encode(city.unlabeled.temporal_paths[:3])       # doctest: +SKIP
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
