//! `wal_class` table for the durability_bad corpus: the three mutating
//! ops are `Logged`, which is what makes the pass audit their arms.

pub fn wal_class(body: &RequestBody) -> WalClass {
    match body {
        RequestBody::CreateFile { .. } => WalClass::Logged,
        RequestBody::DeleteFile { .. } => WalClass::Logged,
        RequestBody::RenameFile { .. } => WalClass::Logged,
        RequestBody::StatFile { .. } => WalClass::Waived,
    }
}
