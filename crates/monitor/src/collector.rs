//! The collector's fleet ledger: one [`EpochAccount`] of shared-budget
//! accounting per lockstep epoch, collected in an [`EpochLedger`].

/// One fleet epoch's shared-budget accounting: what the controllers asked
/// for, what the scheduler granted, and what was actually spent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochAccount {
    /// Epoch number (0-based, lockstep across the fleet).
    pub epoch: usize,
    /// Budget available this epoch, in cost units (`f64::INFINITY` when
    /// uncapped).
    pub budget: f64,
    /// Cost of every controller's *requested* rate (primary streams).
    pub demanded: f64,
    /// Cost of the *granted* rates after scheduling.
    pub granted: f64,
    /// Samples actually collected across the fleet this epoch (primary +
    /// verification streams).
    pub samples: usize,
    /// Cost units actually spent (integral samples × unit price).
    pub spent: f64,
    /// Devices whose grant was below their request.
    pub throttled_devices: usize,
}

/// Per-epoch fleet ledger: an [`EpochAccount`] per lockstep epoch, plus
/// fleet-lifetime totals. The fleet simulation appends one account per
/// epoch; totals are exact sums in epoch order (deterministic).
#[derive(Debug, Clone, Default)]
pub struct EpochLedger {
    accounts: Vec<EpochAccount>,
}

impl EpochLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty ledger with room for `epochs` accounts, so a simulation of
    /// known length records every epoch without reallocating.
    pub fn with_capacity(epochs: usize) -> Self {
        EpochLedger {
            accounts: Vec::with_capacity(epochs),
        }
    }

    /// Appends one epoch's account.
    ///
    /// # Panics
    /// Panics if `account.epoch` is not the next epoch index — the ledger is
    /// strictly sequential so totals stay reproducible.
    pub fn record(&mut self, account: EpochAccount) {
        assert_eq!(
            account.epoch,
            self.accounts.len(),
            "ledger epochs must be recorded in order"
        );
        self.accounts.push(account);
    }

    /// All epoch accounts, in order.
    pub fn accounts(&self) -> &[EpochAccount] {
        &self.accounts
    }

    /// Number of epochs recorded.
    pub fn epochs(&self) -> usize {
        self.accounts.len()
    }

    /// Total cost units actually spent.
    pub fn total_spent(&self) -> f64 {
        self.accounts.iter().map(|a| a.spent).sum()
    }

    /// Total samples collected.
    pub fn total_samples(&self) -> usize {
        self.accounts.iter().map(|a| a.samples).sum()
    }

    /// Fraction of device-epochs that were throttled, given the fleet size.
    pub fn throttled_fraction(&self, devices: usize) -> f64 {
        let device_epochs = devices * self.accounts.len();
        if device_epochs == 0 {
            return 0.0;
        }
        self.accounts
            .iter()
            .map(|a| a.throttled_devices)
            .sum::<usize>() as f64
            / device_epochs as f64
    }

    /// Mean spent cost per epoch (0 for an empty ledger).
    pub fn mean_spent_per_epoch(&self) -> f64 {
        if self.accounts.is_empty() {
            0.0
        } else {
            self.total_spent() / self.accounts.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_ledger_totals_sum_in_order() {
        let mut ledger = EpochLedger::new();
        for (i, spent) in [10.0, 20.0, 5.0].iter().enumerate() {
            ledger.record(EpochAccount {
                epoch: i,
                budget: 25.0,
                demanded: 30.0,
                granted: 25.0,
                samples: 100 * (i + 1),
                spent: *spent,
                throttled_devices: i,
            });
        }
        assert_eq!(ledger.epochs(), 3);
        assert!((ledger.total_spent() - 35.0).abs() < 1e-12);
        assert_eq!(ledger.total_samples(), 600);
        assert!((ledger.mean_spent_per_epoch() - 35.0 / 3.0).abs() < 1e-12);
        // 0 + 1 + 2 throttled device-epochs over a 2-device fleet × 3 epochs.
        assert!((ledger.throttled_fraction(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn epoch_ledger_rejects_out_of_order_epochs() {
        let mut ledger = EpochLedger::new();
        ledger.record(EpochAccount {
            epoch: 1,
            ..EpochAccount::default()
        });
    }

    #[test]
    fn empty_ledger_is_all_zero() {
        let ledger = EpochLedger::new();
        assert_eq!(ledger.epochs(), 0);
        assert_eq!(ledger.total_spent(), 0.0);
        assert_eq!(ledger.throttled_fraction(10), 0.0);
        assert_eq!(ledger.mean_spent_per_epoch(), 0.0);
    }
}
