//! Seeded-violation metadata handler: `CreateFile` constructs its
//! success response before the WAL append (the early-ack bug the pass
//! exists to catch); `DeleteFile` is correct; `RenameFile` is declared
//! `Logged` by wal.rs but has no match arm at all.

fn handle_sync(&self, body: RequestBody) -> GliderResult<ResponseBody> {
    match body {
        RequestBody::CreateFile { path } => {
            let id = self.namespace.create(path)?;
            let resp = Ok(ResponseBody::Created { id });
            self.wal.append(&WalEntry::Created { id })?;
            resp
        }
        RequestBody::DeleteFile { id } => {
            self.namespace.remove(id)?;
            self.wal.append(&WalEntry::Deleted { id })?;
            Ok(ResponseBody::OkAck)
        }
        RequestBody::StatFile { id } => Ok(ResponseBody::Stat(self.namespace.stat(id)?)),
        other => Err(unexpected(other)),
    }
}
