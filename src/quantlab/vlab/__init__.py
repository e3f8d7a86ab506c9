"""User surface: expression parser, verification pipelines, reports, CLI."""
