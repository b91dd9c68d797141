"""Train a forecaster on a synthetic oscillator and score it against persistence.

The synthetic generator plants a single damped oscillation (period 48
months) under observation noise, so there is a real signal to find and a
known ceiling on how predictable it is. This script walks the whole loop:
generate a cube, split it in time, train a downsized model for a few
epochs, and print the correlation-skill table for one- and three-month
leads next to the persistence baseline.

Runs in well under a minute. A run this short tracks the index closely at
lead 1 but still trails the (very strong) persistence baseline; the
full-strength configuration used by the release gate (default model
widths, 40 epochs, 1200 months, about four minutes) pulls ahead of it at
both leads.
"""

import numpy as np

from ensograph import (
    ModelConfig,
    SynthConfig,
    TrainConfig,
    forecast_index,
    generate,
    make_samples,
    region_nodes,
    split_by_years,
    table_from_forecasts,
)
from ensograph.grid import ONI_BOX
from ensograph.train import train

cube, latent = generate(SynthConfig(months=360))
print(f"cube: {cube.n_time} months on {cube.grid.n_cells} cells, "
      f"{cube.period_label()}")
print(f"latent oscillation std {latent.std():.3f} degC\n")

# hold out the last five years; everything before is for fitting
train_anoms = split_by_years(cube, (1900, 1924))
test_anoms = split_by_years(cube, (1925, 1929))
nodes = region_nodes(cube.grid, ONI_BOX)

config = ModelConfig(
    n_nodes=len(nodes),
    horizon=4,              # smoothed lead-3 forecasts need lead 4
    residual_channels=8,
    conv_channels=8,
    skip_channels=8,
    end_channels=16,
    graph={"embed_dim": 4, "alpha": 3.0, "topk": 5},
    seed=0,
)
result = train(config, TrainConfig(epochs=10, seed=0), make_samples(
    train_anoms, nodes, config.window, config.horizon), log=print)

forecasts = forecast_index(result.params, config, test_anoms,
                           leads=(1, 3), k=3, input_scale=result.input_scale)
print()
print(table_from_forecasts(forecasts))

fc = forecasts[1]
worst = int(np.argmax(np.abs(fc.predicted - fc.observed)))
y, m = fc.target_months[worst]
print(f"\nlargest lead-1 miss: {y}-{m:02d}, predicted {fc.predicted[worst]:+.2f} "
      f"observed {fc.observed[worst]:+.2f}")
