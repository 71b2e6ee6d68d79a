"""Monitoring substrate: bounded in-memory time series.

The demo's orchestrator "collects information about network utilization"
through the domain controllers' REST APIs and feeds it to the
forecasting engine.  What is *kept* of that is one
:class:`~repro.monitoring.timeseries.TimeSeries` per live slice (its
demand tail, on the slice's runtime) plus the multiplexing-gain series;
everything a scrape shows is read off live state when it asks
(:func:`repro.core.epoch.sim_gauges`).
"""

from repro.monitoring.timeseries import TimeSeries, TimeSeriesError

__all__ = [
    "TimeSeries",
    "TimeSeriesError",
]
