"""Event argument extraction by prompting code models with class-style ontologies.

The package's names live in its submodules: ``evarg.harness`` (``prepare``
and ``run``, which write a report, and ``load_report`` and ``compare``, which
re-check reports and difference two of them), ``evarg.corpus``,
``evarg.ontology``, ``evarg.emitter``, ``evarg.client``, ``evarg.parsing``,
``evarg.scoring`` and ``evarg.variability``.
"""

__version__ = "0.1.0"
